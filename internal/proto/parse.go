package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"unsafe"

	"pamakv/internal/bufpool"
)

// Parser is the hot-path request parser: it tokenizes command lines in
// place over the bufio.Reader's buffer, parses integer operands directly
// from the byte tokens, copies keys into a reusable per-parser buffer, and
// reads SET data blocks into pooled, slab-class-sized buffers. One Parser
// serves one connection; it is not safe for concurrent use.
//
// In steady state ReadCommand performs zero heap allocations for line
// commands (get, delete, incr, ...) and one pooled buffer acquisition for
// storage commands, returned to the pool automatically on the next
// ReadCommand (or Close).
//
// Ownership rules — the price of zero-copy:
//
//   - The returned *Command and everything it references (Name excepted —
//     verbs are canonical package-level constants) are valid only until the
//     next ReadCommand or Close call; inside a chunk (BeginChunk), until
//     ReleaseChunk or Close.
//   - Keys alias the parser's internal key buffer. A caller that stores a
//     key beyond the current request (cache insert, hot-cache fill) must
//     clone it first (strings.Clone); passing one to a map lookup, hash, or
//     comparison is safe.
//   - Data aliases a pooled buffer. Callers must copy the bytes they keep;
//     the buffer returns to the pool on the next ReadCommand (inside a
//     chunk: on ReleaseChunk).
//
// The allocating reference parser (ReadCommand in reference_test.go) is the
// executable spec; the fuzz harness drives both over identical streams and
// requires agreement on every input.
type Parser struct {
	r *bufio.Reader

	// cmds backs the returned Commands: cmds[0] outside a chunk, one per
	// command of an open chunk (n of them parsed so far).
	cmds  []Command
	n     int
	chunk bool

	keys []string // backing for the Commands' Keys, reused across chunks
	toks [][]byte // token views into the current line, reused

	// keybuf holds the key bytes of the current command (of every command
	// of an open chunk); Keys are unsafe strings over it. Reset (not freed)
	// per command or chunk, and dropped on release once it outgrows
	// maxRetainedKeys.
	keybuf []byte

	// linebuf is the spill buffer for lines straddling the bufio buffer
	// (only reachable with readers smaller than MaxLineLen).
	linebuf []byte

	// data holds the pooled buffers of the data blocks the parser owns: the
	// current command's outside a chunk, every command's of an open chunk.
	// held counts their data bytes.
	data []*[]byte
	held int
}

// maxRetainedKeys caps the key buffer a released parser keeps for the next
// command or chunk.
const maxRetainedKeys = 64 << 10

// NewParser returns a Parser reading from r.
func NewParser(r *bufio.Reader) *Parser { return &Parser{r: r, cmds: make([]Command, 1)} }

// Close releases the parser's pooled resources and ends any open chunk.
// Every returned Command is invalid afterwards.
func (p *Parser) Close() { p.ReleaseChunk() }

// BeginChunk opens a chunk: until ReleaseChunk, every Command ReadCommand
// returns stays valid, with its keys and data block, while later ones are
// parsed. A server parses a pipelined burst ahead this way, looks at all of
// its keys, then serves the commands in order.
func (p *Parser) BeginChunk() {
	p.release()
	p.chunk = true
}

// ReleaseChunk ends the open chunk (if any) and gives every data buffer it
// held back to the pool. The chunk's Commands are invalid afterwards.
func (p *Parser) ReleaseChunk() {
	p.release()
	p.chunk = false
}

// ChunkData returns the data-block bytes the parser holds: those of every
// command of the open chunk.
func (p *Parser) ChunkData() int { return p.held }

// release returns the held data buffers to the pool and resets the command,
// key and data state for the next command (or chunk).
func (p *Parser) release() {
	for i, d := range p.data {
		bufpool.Put(d)
		p.data[i] = nil
	}
	p.data = p.data[:0]
	p.held = 0
	p.n = 0
	p.keys = p.keys[:0]
	p.keybuf = p.keybuf[:0]
	if cap(p.keybuf) > maxRetainedKeys {
		// The key views over it go too, or they would pin it.
		p.keybuf, p.keys = nil, nil
	}
}

// Canonical verbs: matching a wire token against this vocabulary both
// validates it and yields an interned name, so cmd.Name never materializes
// a string from the wire bytes.
var verbs = [...]string{
	"get", "gets", "set", "add", "replace", "append", "prepend", "cas",
	"delete", "incr", "decr", "touch",
	"stats", "flush_all", "version", "quit",
}

// internVerb matches tok case-insensitively (ASCII) against the verb
// vocabulary.
func internVerb(tok []byte) (string, bool) {
next:
	for _, v := range verbs {
		if len(tok) != len(v) {
			continue
		}
		for i := 0; i < len(v); i++ {
			c := tok[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != v[i] {
				continue next
			}
		}
		return v, true
	}
	return "", false
}

var noreplyToken = []byte("noreply")

// ReadCommand parses the next command from the stream. io.EOF is returned
// verbatim on a cleanly closed connection. See the Parser doc for the
// lifetime of the returned Command.
func (p *Parser) ReadCommand() (*Command, error) {
	if !p.chunk {
		p.release()
	}
	if p.n == len(p.cmds) {
		// A chunk outgrew the commands parsed so far. The ones already
		// returned stay where they are, in the old array.
		p.cmds = append(p.cmds, Command{})
		p.cmds = p.cmds[:cap(p.cmds)]
	}
	cmd := &p.cmds[p.n]
	*cmd = Command{}
	if err := p.parse(cmd); err != nil {
		return nil, err
	}
	if p.chunk {
		p.n++
	}
	return cmd, nil
}

// parse reads one command into cmd, appending its keys to p.keys.
func (p *Parser) parse(cmd *Command) error {
	k0 := len(p.keys)
	line, err := p.readLine()
	if err != nil {
		return err
	}
	p.toks = splitTokens(line, p.toks[:0])
	if len(p.toks) == 0 {
		return clientErrf("empty command")
	}
	name, known := internVerb(p.toks[0])
	if !known {
		return clientErrf("unknown command %q", p.toks[0])
	}
	cmd.Name = name
	args := p.toks[1:]
	switch name {
	case "get", "gets":
		if len(args) == 0 {
			return clientErrf("get requires at least one key")
		}
		for _, k := range args {
			if err := checkKey(k); err != nil {
				return err
			}
		}
		for _, k := range args {
			p.keys = append(p.keys, p.internKey(k))
		}
		cmd.Keys = p.keys[k0:]
	case "set", "add", "replace", "append", "prepend", "cas":
		want := 4
		if name == "cas" {
			want = 5
		}
		if len(args) != want && !(len(args) == want+1 && bytes.Equal(args[want], noreplyToken)) {
			extra := ""
			if name == "cas" {
				extra = " <cas>"
			}
			return clientErrf("%s requires <key> <flags> <exptime> <bytes>%s [noreply]", name, extra)
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		p.keys = append(p.keys, p.internKey(args[0]))
		cmd.Keys = p.keys[k0:]
		flags, ok := parseUintB(args[1], 32)
		if !ok {
			return clientErrf("bad flags %q", args[1])
		}
		cmd.Flags = uint32(flags)
		exp, ok := parseIntB(args[2])
		if !ok {
			return clientErrf("bad exptime %q", args[2])
		}
		cmd.Exptime = exp
		n, ok := parseIntB(args[3])
		if !ok || n < 0 || n > MaxDataLen {
			return clientErrf("bad bytes %q", args[3])
		}
		cmd.Bytes = int(n)
		if name == "cas" {
			id, ok := parseUintB(args[4], 64)
			if !ok {
				return clientErrf("bad cas token %q", args[4])
			}
			cmd.CasID = id
		}
		cmd.NoReply = len(args) == want+1
		// Past this point the line (and p.toks) is dead: readData refills
		// the bufio buffer. Everything line-derived was extracted above.
		if err := p.readData(cmd, int(n)); err != nil {
			return err
		}
	case "delete":
		if len(args) != 1 && !(len(args) == 2 && bytes.Equal(args[1], noreplyToken)) {
			return clientErrf("delete requires <key> [noreply]")
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		p.keys = append(p.keys, p.internKey(args[0]))
		cmd.Keys = p.keys[k0:]
		cmd.NoReply = len(args) == 2
	case "incr", "decr":
		if len(args) != 2 && !(len(args) == 3 && bytes.Equal(args[2], noreplyToken)) {
			return clientErrf("%s requires <key> <delta> [noreply]", name)
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		p.keys = append(p.keys, p.internKey(args[0]))
		cmd.Keys = p.keys[k0:]
		d, ok := parseUintB(args[1], 64)
		if !ok {
			return clientErrf("bad delta %q", args[1])
		}
		cmd.Delta = d
		cmd.NoReply = len(args) == 3
	case "touch":
		if len(args) != 2 && !(len(args) == 3 && bytes.Equal(args[2], noreplyToken)) {
			return clientErrf("touch requires <key> <exptime> [noreply]")
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		p.keys = append(p.keys, p.internKey(args[0]))
		cmd.Keys = p.keys[k0:]
		exp, ok := parseIntB(args[1])
		if !ok {
			return clientErrf("bad exptime %q", args[1])
		}
		cmd.Exptime = exp
		cmd.NoReply = len(args) == 3
	default:
		// stats, flush_all, version, quit: no operands used.
	}
	return nil
}

// internKey copies tok into the parser's key buffer and returns a string
// view over the copy (valid until the next ReadCommand, or the end of the
// chunk). The copy is mandatory even for line-only commands: the token
// aliases the bufio buffer, which the next read overwrites. When the buffer
// grows, the keys already returned keep the old array alive.
func (p *Parser) internKey(tok []byte) string {
	off := len(p.keybuf)
	p.keybuf = append(p.keybuf, tok...)
	return unsafe.String(unsafe.SliceData(p.keybuf[off:]), len(tok))
}

// readData consumes cmd's n-byte data block plus its CRLF terminator into a
// pooled buffer owned by the parser.
func (p *Parser) readData(cmd *Command, n int) error {
	d := bufpool.Get(n + 2)
	p.data = append(p.data, d)
	p.held += n
	buf := *d
	if _, err := io.ReadFull(p.r, buf); err != nil {
		return &ClientError{Msg: fmt.Sprintf("short data block: %v", err), Err: err}
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return clientErrf("data block not terminated by CRLF")
	}
	cmd.Data = buf[:n]
	return nil
}

// readLine returns the next CRLF- (or LF-) terminated line without its
// terminator. The fast path returns a view into the bufio buffer (valid
// until the next read); lines straddling the buffer spill into a reusable
// scratch buffer. Semantics mirror the reference readLine exactly.
func (p *Parser) readLine() ([]byte, error) {
	line, spill, err := readLineFrom(p.r, p.linebuf)
	p.linebuf = spill
	return line, err
}

// readLineFrom is the in-place line reader shared by Parser and RespReader:
// the fast path is a view into r's buffer; lines straddling the buffer spill
// into spill (grown as needed and returned for reuse). Semantics mirror the
// reference readLine exactly — the differential fuzz harnesses depend on it.
func readLineFrom(r *bufio.Reader, spill []byte) (line, newSpill []byte, err error) {
	chunk, err := r.ReadSlice('\n')
	if err == nil {
		if len(chunk) > MaxLineLen+2 { // +2 allows the CRLF terminator itself
			return nil, spill, ErrLineTooLong
		}
		return trimCRLF(chunk), spill, nil
	}
	if err != bufio.ErrBufferFull {
		if err == io.EOF && len(chunk) == 0 {
			return nil, spill, io.EOF
		}
		return nil, spill, err
	}
	// Slow path: the line straddles the reader's buffer.
	line = append(spill[:0], chunk...)
	for {
		if len(line) > MaxLineLen {
			return nil, line, ErrLineTooLong
		}
		chunk, err = r.ReadSlice('\n')
		line = append(line, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, line, err
		}
		break
	}
	if len(line) > MaxLineLen+2 {
		return nil, line, ErrLineTooLong
	}
	return trimCRLF(line), line, nil
}

// trimCRLF strips all trailing CR and LF bytes (matching the reference
// parser's bytes.TrimRight(line, "\r\n")).
func trimCRLF(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\r' || b[len(b)-1] == '\n') {
		b = b[:len(b)-1]
	}
	return b
}

// splitTokens splits line on runs of ASCII spaces into views over line,
// appending to toks. The space byte is the protocol's only separator: a tab
// stays part of its token (and fails verb or key validation), exactly as in
// fieldsSpace.
func splitTokens(line []byte, toks [][]byte) [][]byte {
	for i := 0; i < len(line); {
		if line[i] == ' ' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		toks = append(toks, line[i:j])
		i = j
	}
	return toks
}

// parseUintB parses an unsigned base-10 integer of the given bit size from
// b, matching strconv.ParseUint(string(b), 10, bits): no sign, no empty
// token, overflow rejected.
func parseUintB(b []byte, bits int) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	max := uint64(math.MaxUint64)
	if bits < 64 {
		max = 1<<uint(bits) - 1
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseIntB parses a signed base-10 64-bit integer from b, matching
// strconv.ParseInt(string(b), 10, 64): optional +/- sign, overflow
// rejected.
func parseIntB(b []byte) (int64, bool) {
	neg := false
	i := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, false
	}
	cutoff := uint64(math.MaxInt64)
	if neg {
		cutoff = uint64(math.MaxInt64) + 1
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (cutoff-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}
