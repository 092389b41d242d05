package proto

// The reference parsers: the allocating, obviously-correct executable spec
// of the protocol that the in-place Parser and RespReader are fuzzed
// against (FuzzParseRequest, FuzzClientReadResponse). Only tests run them.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCommand parses the next command from r, including set's data block.
// io.EOF is returned verbatim on a cleanly closed connection.
//
// This is the allocating reference parser: every token becomes its own
// string and every data block a fresh slice, so callers own everything the
// Command references. The serving path uses Parser, which tokenizes in
// place over the reader's buffer; the fuzz harness drives both over
// identical streams and requires agreement on every input, keeping this
// implementation the executable spec of the protocol. It lives with the
// tests because nothing else runs it.
func ReadCommand(r *bufio.Reader) (*Command, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	fields := fieldsSpace(string(line))
	if len(fields) == 0 {
		return nil, clientErrf("empty command")
	}
	name := strings.ToLower(fields[0])
	cmd := &Command{Verb: refVerbs[name]}
	args := fields[1:]
	switch name {
	case "get", "gets":
		if len(args) == 0 {
			return nil, clientErrf("get requires at least one key")
		}
		for _, k := range args {
			if err := checkKey(k); err != nil {
				return nil, err
			}
		}
		cmd.Keys = args
	case "set", "add", "replace", "append", "prepend", "cas":
		// Storage commands share the grammar; cas carries one extra
		// token operand before the optional noreply.
		want := 4
		if name == "cas" {
			want = 5
		}
		if len(args) != want && !(len(args) == want+1 && args[want] == "noreply") {
			return nil, clientErrf("%s requires <key> <flags> <exptime> <bytes>%s [noreply]",
				name, map[bool]string{true: " <cas>", false: ""}[name == "cas"])
		}
		if err := checkKey(args[0]); err != nil {
			return nil, err
		}
		cmd.Keys = args[:1]
		flags, err := strconv.ParseUint(args[1], 10, 32)
		if err != nil {
			return nil, clientErrf("bad flags %q", args[1])
		}
		cmd.Flags = uint32(flags)
		exp, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return nil, clientErrf("bad exptime %q", args[2])
		}
		cmd.Exptime = exp
		n, err := strconv.Atoi(args[3])
		if err != nil || n < 0 || n > MaxDataLen {
			return nil, clientErrf("bad bytes %q", args[3])
		}
		cmd.Bytes = n
		if name == "cas" {
			id, err := strconv.ParseUint(args[4], 10, 64)
			if err != nil {
				return nil, clientErrf("bad cas token %q", args[4])
			}
			cmd.CasID = id
		}
		cmd.NoReply = len(args) == want+1
		data, err := readData(r, n)
		if err != nil {
			return nil, err
		}
		cmd.Data = data
	case "delete":
		if len(args) != 1 && !(len(args) == 2 && args[1] == "noreply") {
			return nil, clientErrf("delete requires <key> [noreply]")
		}
		if err := checkKey(args[0]); err != nil {
			return nil, err
		}
		cmd.Keys = args[:1]
		cmd.NoReply = len(args) == 2
	case "incr", "decr":
		if len(args) != 2 && !(len(args) == 3 && args[2] == "noreply") {
			return nil, clientErrf("%s requires <key> <delta> [noreply]", name)
		}
		if err := checkKey(args[0]); err != nil {
			return nil, err
		}
		cmd.Keys = args[:1]
		d, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return nil, clientErrf("bad delta %q", args[1])
		}
		cmd.Delta = d
		cmd.NoReply = len(args) == 3
	case "touch":
		if len(args) != 2 && !(len(args) == 3 && args[2] == "noreply") {
			return nil, clientErrf("touch requires <key> <exptime> [noreply]")
		}
		if err := checkKey(args[0]); err != nil {
			return nil, err
		}
		cmd.Keys = args[:1]
		exp, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return nil, clientErrf("bad exptime %q", args[1])
		}
		cmd.Exptime = exp
		cmd.NoReply = len(args) == 3
	case "stats", "flush_all", "version", "quit":
		// No operands used.
	default:
		return nil, clientErrf("unknown command %q", name)
	}
	return cmd, nil
}

// refVerbs spells the verbs out again, independently of the package's own
// table, so the spec does not inherit a mistake in it.
var refVerbs = map[string]Verb{
	"get": VerbGet, "gets": VerbGets, "set": VerbSet, "add": VerbAdd,
	"replace": VerbReplace, "append": VerbAppend, "prepend": VerbPrepend,
	"cas": VerbCAS, "delete": VerbDelete, "incr": VerbIncr, "decr": VerbDecr,
	"touch": VerbTouch, "stats": VerbStats, "flush_all": VerbFlushAll,
	"version": VerbVersion, "quit": VerbQuit,
}

// refStatuses spells the status words out again, as refVerbs does the verbs.
var refStatuses = map[string]Status{
	"END": StatusEnd, "STORED": StatusStored, "NOT_STORED": StatusNotStored,
	"EXISTS": StatusExists, "NOT_FOUND": StatusNotFound, "DELETED": StatusDeleted,
	"TOUCHED": StatusTouched, "OK": StatusOK, "ERROR": StatusError,
	"CLIENT_ERROR": StatusClientError, "SERVER_ERROR": StatusServerError,
	"VERSION": StatusVersion,
}

// readData consumes an n-byte data block plus its CRLF terminator.
func readData(r *bufio.Reader, n int) ([]byte, error) {
	data := make([]byte, n+2)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, &ClientError{Msg: fmt.Sprintf("short data block: %v", err), Err: err}
	}
	if !bytes.HasSuffix(data, []byte("\r\n")) {
		return nil, clientErrf("data block not terminated by CRLF")
	}
	return data[:n], nil
}

// fieldsSpace splits s on runs of ASCII spaces — the protocol's only token
// separator. Unlike strings.Fields, a tab (or any other whitespace byte) is
// part of its token and will fail verb or key validation, matching the
// in-place tokenizer byte for byte so the two parsers agree on every input.
func fieldsSpace(s string) []string {
	var out []string
	for i := 0; i < len(s); {
		if s[i] == ' ' {
			i++
			continue
		}
		j := i
		for j < len(s) && s[j] != ' ' {
			j++
		}
		out = append(out, s[i:j])
		i = j
	}
	return out
}

// readLine reads one CRLF- (or LF-) terminated line without the terminator,
// rejecting lines longer than MaxLineLen with ErrLineTooLong.
func readLine(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if err == bufio.ErrBufferFull {
			if len(line) > MaxLineLen {
				return nil, ErrLineTooLong
			}
			continue
		}
		if err != nil {
			if err == io.EOF && len(line) == 0 {
				return nil, io.EOF
			}
			return nil, err
		}
		break
	}
	if len(line) > MaxLineLen+2 { // +2 allows the CRLF terminator itself
		return nil, ErrLineTooLong
	}
	line = bytes.TrimRight(line, "\r\n")
	return line, nil
}

// ReadResponse parses one complete response from r: a single status line
// (STORED, DELETED, a number, ...), or a block response (VALUE/STAT lines
// terminated by END). Malformed input yields a *ClientError; a line-length
// violation yields ErrLineTooLong. io.EOF is returned verbatim on a cleanly
// closed connection.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	resp := &Response{}
	for {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		fields := fieldsSpace(string(line))
		if len(fields) == 0 {
			return nil, clientErrf("empty response line")
		}
		switch fields[0] {
		case "VALUE":
			if len(resp.Values) >= maxResponseBlocks {
				return nil, clientErrf("response exceeds %d VALUE blocks", maxResponseBlocks)
			}
			v, err := parseValueBlock(r, fields[1:])
			if err != nil {
				return nil, err
			}
			resp.Values = append(resp.Values, v)
		case "STAT":
			if len(resp.Stats) >= maxResponseBlocks {
				return nil, clientErrf("response exceeds %d STAT lines", maxResponseBlocks)
			}
			if len(fields) < 3 {
				return nil, clientErrf("STAT line needs a name and a value")
			}
			resp.Stats = append(resp.Stats, [2]string{fields[1], strings.Join(fields[2:], " ")})
		case "END", "STORED", "NOT_STORED", "EXISTS", "NOT_FOUND", "DELETED", "TOUCHED", "OK", "ERROR":
			resp.Status = refStatuses[fields[0]]
			return resp, nil
		case "CLIENT_ERROR", "SERVER_ERROR", "VERSION":
			resp.Status = refStatuses[fields[0]]
			resp.Message = strings.Join(fields[1:], " ")
			return resp, nil
		default:
			if n, err := strconv.ParseUint(fields[0], 10, 64); err == nil && len(fields) == 1 {
				resp.Status = StatusNumber
				resp.Number = n
				return resp, nil
			}
			return nil, clientErrf("unparseable response line %q", line)
		}
	}
}

// parseValueBlock parses the operands of a VALUE line ("<key> <flags>
// <bytes> [<cas>]") and consumes the data block.
func parseValueBlock(r *bufio.Reader, args []string) (Value, error) {
	if len(args) != 3 && len(args) != 4 {
		return Value{}, clientErrf("VALUE line needs <key> <flags> <bytes> [<cas>]")
	}
	if err := checkKey(args[0]); err != nil {
		return Value{}, err
	}
	flags, err := strconv.ParseUint(args[1], 10, 32)
	if err != nil {
		return Value{}, clientErrf("bad flags %q", args[1])
	}
	n, err := strconv.Atoi(args[2])
	if err != nil || n < 0 || n > MaxDataLen {
		return Value{}, clientErrf("bad bytes %q", args[2])
	}
	v := Value{Key: args[0], Flags: uint32(flags)}
	if len(args) == 4 {
		cas, err := strconv.ParseUint(args[3], 10, 64)
		if err != nil {
			return Value{}, clientErrf("bad cas token %q", args[3])
		}
		v.CAS = cas
	}
	data, err := readData(r, n)
	if err != nil {
		return Value{}, err
	}
	v.Data = data
	return v, nil
}
