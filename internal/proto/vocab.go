package proto

import "fmt"

// The protocol's words. Every layer that speaks the protocol — the server's
// dispatch, the client, the peer tier, membership — names a request by its
// Verb and a reply by its Status; only this package spells them.

// Verb identifies a request's command word. The verbs are ordered so that
// each property below is a range: the reads, then the stores, then the
// other keyed verbs, then the unkeyed ones.
type Verb uint8

// The verbs the parser accepts.
const (
	VerbGet Verb = iota
	VerbGets
	VerbSet
	VerbAdd
	VerbReplace
	VerbAppend
	VerbPrepend
	VerbCAS
	VerbDelete
	VerbIncr
	VerbDecr
	VerbTouch
	VerbStats
	VerbFlushAll
	VerbVersion
	VerbQuit
	numVerbs
)

var verbNames = [numVerbs]string{
	VerbGet: "get", VerbGets: "gets", VerbSet: "set", VerbAdd: "add",
	VerbReplace: "replace", VerbAppend: "append", VerbPrepend: "prepend",
	VerbCAS: "cas", VerbDelete: "delete", VerbIncr: "incr", VerbDecr: "decr",
	VerbTouch: "touch", VerbStats: "stats", VerbFlushAll: "flush_all",
	VerbVersion: "version", VerbQuit: "quit",
}

// String returns the verb's wire word.
func (v Verb) String() string {
	if v < numVerbs {
		return verbNames[v]
	}
	return fmt.Sprintf("Verb(%d)", uint8(v))
}

// Reads reports whether the verb retrieves values (get, gets): it takes one
// or more keys and is answered with VALUE blocks and END.
func (v Verb) Reads() bool { return v <= VerbGets }

// Stores reports whether the verb is a storage command (set, add, replace,
// append, prepend, cas): it carries a data block.
func (v Verb) Stores() bool { return VerbSet <= v && v <= VerbCAS }

// Keyed reports whether the verb operates on keys: everything but stats,
// flush_all, version and quit. A keyed verb that does not read takes
// exactly one key and mutates it.
func (v Verb) Keyed() bool { return v <= VerbTouch }

// parseVerb matches tok case-insensitively (ASCII) against the verbs.
func parseVerb(tok []byte) (Verb, bool) {
next:
	for v, name := range verbNames {
		if len(tok) != len(name) {
			continue
		}
		for i := 0; i < len(name); i++ {
			c := tok[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[i] {
				continue next
			}
		}
		return Verb(v), true
	}
	return 0, false
}

// Status identifies a reply's terminal line.
type Status uint8

// Terminal statuses. StatusNumber stands for a bare incr/decr result line.
const (
	StatusEnd Status = iota
	StatusStored
	StatusNotStored
	StatusExists
	StatusNotFound
	StatusDeleted
	StatusTouched
	StatusOK
	StatusError
	StatusClientError
	StatusServerError
	StatusVersion
	StatusNumber
)

var statusNames = [...]string{
	StatusEnd:         "END",
	StatusStored:      "STORED",
	StatusNotStored:   "NOT_STORED",
	StatusExists:      "EXISTS",
	StatusNotFound:    "NOT_FOUND",
	StatusDeleted:     "DELETED",
	StatusTouched:     "TOUCHED",
	StatusOK:          "OK",
	StatusError:       "ERROR",
	StatusClientError: "CLIENT_ERROR",
	StatusServerError: "SERVER_ERROR",
	StatusVersion:     "VERSION",
	StatusNumber:      "NUMBER",
}

// String returns the status's wire word ("END", "STORED", ...), or "NUMBER"
// for a bare numeric line.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// wireStatus matches a terminal-line token against the status words.
// StatusNumber is excluded: numeric lines are recognized by parsing.
func wireStatus(tok []byte) (Status, bool) {
	for st := StatusEnd; st < StatusNumber; st++ {
		if string(tok) == statusNames[st] {
			return st, true
		}
	}
	return 0, false
}

// AppendStatus renders a reply that is its status word alone: STORED,
// NOT_FOUND, END, ....
func AppendStatus(dst []byte, st Status) []byte {
	dst = append(dst, statusNames[st]...)
	return append(dst, '\r', '\n')
}

// AppendStatusMsg renders a status line that carries a message:
// CLIENT_ERROR, SERVER_ERROR or VERSION.
func AppendStatusMsg[M ~string | ~[]byte](dst []byte, st Status, msg M) []byte {
	dst = append(dst, statusNames[st]...)
	dst = append(dst, ' ')
	dst = append(dst, msg...)
	return append(dst, '\r', '\n')
}
