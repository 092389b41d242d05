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
// from the byte tokens, and hands out keys and SET data blocks as views into
// that same buffer whenever the whole command is already buffered. One
// Parser serves one connection; it is not safe for concurrent use.
//
// In steady state ReadCommand performs zero heap allocations and copies no
// request bytes. A data block that straddles the reader's buffer, or is
// larger than it, is read into a pooled, slab-class-sized buffer instead.
//
// Ownership rules — the price of zero-copy:
//
//   - The returned *Command and everything it references (Name excepted —
//     verbs are canonical package-level constants) are valid only until the
//     next ReadCommand or Close call; inside a chunk (BeginChunk), until
//     ReleaseChunk or Close.
//   - Keys and Data alias the reader's buffer until a read would refill it,
//     and are evacuated before one: the parser copies the keys of every
//     command still valid into its key buffer and their data blocks into
//     pooled buffers, then reads. Either way they stay valid for the span
//     above and no longer. A caller that stores a key or value beyond it
//     (cache insert, hot-cache fill) copies it; passing one to a map lookup,
//     hash, or comparison is safe.
//   - The caller reads the bufio.Reader only through the Parser while any
//     Command is valid: a read of its own could refill the buffer under
//     them.
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

	// keybuf holds the copied key bytes of the current command (of every
	// command of an open chunk): keys of a spilled line and evacuated keys;
	// Keys are unsafe strings over it. Reset (not freed) per command or
	// chunk, and dropped on release once it outgrows maxRetainedKeys.
	keybuf []byte

	// linebuf is the spill buffer for lines straddling the bufio buffer
	// (only reachable with readers smaller than MaxLineLen).
	linebuf []byte

	// data holds the pooled buffers of the data blocks the parser owns: the
	// current command's outside a chunk, every command's of an open chunk.
	// held counts the data bytes of those commands, pooled or aliased.
	data []*[]byte
	held int

	// aliased lists the valid commands whose keys or data are views into
	// r's buffer, by pointer: a chunk that outgrows cmds leaves its first
	// commands in the old array. curAliased says the same of the command
	// being parsed.
	aliased    []*Command
	curAliased bool
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
	clear(p.aliased)
	p.aliased = p.aliased[:0]
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
	p.curAliased = false
	if err := p.parse(cmd); err != nil {
		return nil, err
	}
	if p.curAliased {
		p.aliased = append(p.aliased, cmd)
	}
	if p.chunk {
		p.n++
	}
	return cmd, nil
}

// parse reads one command into cmd, appending its keys to p.keys.
func (p *Parser) parse(cmd *Command) error {
	k0 := len(p.keys)
	line, inBuf, err := p.readLine()
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
			p.keys = append(p.keys, p.key(k, inBuf))
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
		p.keys = append(p.keys, p.key(args[0], inBuf))
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
		// Past this point the line (and p.toks) may be dead: readData can
		// refill the bufio buffer. Everything line-derived was extracted
		// above, and the key is evacuated first if it aliases the line.
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
		p.keys = append(p.keys, p.key(args[0], inBuf))
		cmd.Keys = p.keys[k0:]
		cmd.NoReply = len(args) == 2
	case "incr", "decr":
		if len(args) != 2 && !(len(args) == 3 && bytes.Equal(args[2], noreplyToken)) {
			return clientErrf("%s requires <key> <delta> [noreply]", name)
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		p.keys = append(p.keys, p.key(args[0], inBuf))
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
		p.keys = append(p.keys, p.key(args[0], inBuf))
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
// chunk). When the buffer grows, the keys already returned keep the old
// array alive.
func (p *Parser) internKey(tok []byte) string {
	off := len(p.keybuf)
	p.keybuf = append(p.keybuf, tok...)
	return unsafe.String(unsafe.SliceData(p.keybuf[off:]), len(tok))
}

// key returns a key token as a string: a view over tok when tok is in the
// reader's buffer (inBuf; evacuate copies it out before a refill), else a
// copy in the key buffer.
func (p *Parser) key(tok []byte, inBuf bool) string {
	if !inBuf {
		return p.internKey(tok)
	}
	p.curAliased = true
	return unsafe.String(unsafe.SliceData(tok), len(tok))
}

// readData consumes cmd's n-byte data block plus its CRLF terminator. A
// block already wholly buffered is a view into the reader's buffer; any
// other is read into a pooled buffer the parser owns, after every alias
// into the reader's buffer, cmd's key included, has been evacuated.
func (p *Parser) readData(cmd *Command, n int) error {
	p.held += n
	if p.r.Buffered() >= n+2 {
		buf, _ := p.r.Peek(n + 2)
		p.r.Discard(n + 2)
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return clientErrf("data block not terminated by CRLF")
		}
		cmd.Data = buf[:n:n]
		p.curAliased = true
		return nil
	}
	p.evacuate(cmd)
	d := bufpool.Get(n + 2)
	p.data = append(p.data, d)
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

// evacuate copies every key and data block that aliases the reader's
// buffer out of it: those of the valid commands and of cur, the command
// being parsed (nil before its line is read, when nothing of it aliases the
// buffer yet). It runs before any read that can refill the buffer, which
// would slide or overwrite the bytes they view.
func (p *Parser) evacuate(cur *Command) {
	if p.curAliased {
		p.copyOut(cur)
		p.curAliased = false
	}
	for _, c := range p.aliased {
		p.copyOut(c)
	}
	clear(p.aliased)
	p.aliased = p.aliased[:0]
}

// copyOut moves c's keys into the key buffer and its data block into a
// pooled buffer the parser owns.
func (p *Parser) copyOut(c *Command) {
	for i, k := range c.Keys {
		c.Keys[i] = p.internKey(unsafe.Slice(unsafe.StringData(k), len(k)))
	}
	if len(c.Data) > 0 {
		d := bufpool.Get(len(c.Data))
		copy(*d, c.Data)
		p.data = append(p.data, d)
		c.Data = *d
	}
}

// readLine returns the next CRLF- (or LF-) terminated line without its
// terminator. A line already wholly buffered is a view into the reader's
// buffer, read without a refill (inBuf). Otherwise the parser evacuates
// first, since the read refills the buffer; the line it then reads is a view
// into the buffer too, unless it straddles the buffer and spills into a
// reusable scratch buffer. Semantics mirror the reference readLine exactly.
func (p *Parser) readLine() (line []byte, inBuf bool, err error) {
	buf, _ := p.r.Peek(p.r.Buffered())
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		p.r.Discard(i + 1)
		if i+1 > MaxLineLen+2 { // +2 allows the CRLF terminator itself
			return nil, false, ErrLineTooLong
		}
		return trimCRLF(buf[:i+1]), true, nil
	}
	p.evacuate(nil)
	line, p.linebuf, err = readLineFrom(p.r, p.linebuf)
	spilled := len(line) > 0 && unsafe.SliceData(line) == unsafe.SliceData(p.linebuf)
	return line, !spilled, err
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
