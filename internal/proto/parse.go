package proto

import (
	"bufio"
	"bytes"
	"errors"
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
//   - The returned *Command and everything it references are valid only
//     until the next ReadCommand or Close call; inside a chunk (BeginChunk),
//     until ReleaseChunk or Close.
//   - Keys and Data alias the reader's buffer, and a read that refills it
//     would slide or overwrite them, so no valid command ever sees one:
//     inside a chunk that holds a command, ReadCommand returns
//     ErrUnbuffered rather than read a command not wholly buffered, and
//     the chunk is complete. They stay valid for the span above and no
//     longer. A caller that stores a key or value beyond it (cache
//     insert, hot-cache fill) copies it; passing one to a map lookup,
//     hash, or comparison is safe.
//   - The caller reads the bufio.Reader only through the Parser while any
//     Command is valid, or while Ready reports a held store (its key, all
//     that is kept of its line, views the buffer until the store is
//     finished): a read of its own could refill the buffer under them.
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
	// command of an open chunk): keys of a spilled line, and the key of a
	// command whose data block is read with a refill; Keys are unsafe
	// strings over it. Reset (not freed) per command or
	// chunk, and dropped on release once it outgrows maxRetainedKeys.
	keybuf []byte

	// linebuf is the spill buffer for lines straddling the bufio buffer
	// (only reachable with readers smaller than MaxLineLen).
	linebuf []byte

	// data holds the pooled buffers of the data blocks the parser owns:
	// the current command's outside a chunk, its first command's (and any
	// failed parse's) inside one. held counts the data bytes of the
	// commands parsed, pooled or aliased.
	data []*[]byte
	held int

	// next is a storage command whose line was parsed but whose data block
	// was not wholly buffered when its chunk already held a command
	// (hasNext): the first ReadCommand after ReleaseChunk or BeginChunk
	// finishes it.
	next    Command
	hasNext bool
}

// ErrUnbuffered reports that the next command is not wholly in the
// reader's buffer while the open chunk holds a command: reading it would
// refill the buffer the chunk's commands view. The chunk is complete: a
// further ReadCommand inside it returns ErrUnbuffered again, and the first
// after ReleaseChunk or BeginChunk returns that command.
var ErrUnbuffered = errors.New("proto: next command not wholly buffered")

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

// Ready reports whether the parser has input in hand: bytes in the
// reader's buffer, or a store whose line it has read and whose data block
// the next ReadCommand reads. A server serves what it has parsed, and keeps
// its batch open, only while the parser is ready.
func (p *Parser) Ready() bool { return p.hasNext || p.r.Buffered() > 0 }

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

var noreplyToken = []byte("noreply")

// ReadCommand parses the next command from the stream. io.EOF is returned
// verbatim on a cleanly closed connection, ErrUnbuffered inside a chunk
// that holds a command when the next is not wholly buffered (its line, if
// read, is not parsed again). See the Parser doc for the lifetime of the
// returned Command.
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
	var err error
	if p.hasNext {
		err = p.resume(cmd)
	} else {
		err = p.parse(cmd)
	}
	if err != nil {
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
	line, inBuf, err := p.readLine()
	if err != nil {
		return err
	}
	p.toks = splitTokens(line, p.toks[:0])
	if len(p.toks) == 0 {
		return clientErrf("empty command")
	}
	verb, known := parseVerb(p.toks[0])
	if !known {
		return clientErrf("unknown command %q", p.toks[0])
	}
	cmd.Verb = verb
	args := p.toks[1:]
	switch verb {
	case VerbGet, VerbGets:
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
	case VerbSet, VerbAdd, VerbReplace, VerbAppend, VerbPrepend, VerbCAS:
		want := 4
		if verb == VerbCAS {
			want = 5
		}
		if len(args) != want && !(len(args) == want+1 && bytes.Equal(args[want], noreplyToken)) {
			extra := ""
			if verb == VerbCAS {
				extra = " <cas>"
			}
			return clientErrf("%s requires <key> <flags> <exptime> <bytes>%s [noreply]", verb, extra)
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
		if verb == VerbCAS {
			id, ok := parseUintB(args[4], 64)
			if !ok {
				return clientErrf("bad cas token %q", args[4])
			}
			cmd.CasID = id
		}
		cmd.NoReply = len(args) == want+1
		// Past this point the line (and p.toks) may be dead: readData can
		// refill the bufio buffer. Everything line-derived was extracted
		// above, and readData copies the key out first.
		if err := p.readData(cmd, int(n)); err != nil {
			return err
		}
	case VerbDelete:
		if len(args) != 1 && !(len(args) == 2 && bytes.Equal(args[1], noreplyToken)) {
			return clientErrf("delete requires <key> [noreply]")
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		p.keys = append(p.keys, p.key(args[0], inBuf))
		cmd.Keys = p.keys[k0:]
		cmd.NoReply = len(args) == 2
	case VerbIncr, VerbDecr:
		if len(args) != 2 && !(len(args) == 3 && bytes.Equal(args[2], noreplyToken)) {
			return clientErrf("%s requires <key> <delta> [noreply]", verb)
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
	case VerbTouch:
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

// resume finishes p.next, the storage command whose data block its chunk
// ended before. Its line is parsed, and its key still views the reader's
// buffer, which no read has refilled since.
func (p *Parser) resume(cmd *Command) error {
	*cmd, p.next, p.hasNext = p.next, Command{}, false
	p.keys = append(p.keys, cmd.Keys[0])
	cmd.Keys = p.keys[len(p.keys)-1:]
	return p.readData(cmd, cmd.Bytes)
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
// reader's buffer (inBuf), else a copy in the key buffer.
func (p *Parser) key(tok []byte, inBuf bool) string {
	if !inBuf {
		return p.internKey(tok)
	}
	return unsafe.String(unsafe.SliceData(tok), len(tok))
}

// readData consumes cmd's n-byte data block plus its CRLF terminator. A
// block already wholly buffered is a view into the reader's buffer. Any
// other needs a refill: inside a chunk that holds a command the parser
// keeps cmd in p.next unread and reports ErrUnbuffered; otherwise it copies
// cmd's key out of the buffer and reads the block into a pooled buffer it
// owns.
func (p *Parser) readData(cmd *Command, n int) error {
	if p.r.Buffered() < n+2 && p.chunk && p.n > 0 {
		p.next, p.hasNext = *cmd, true
		return ErrUnbuffered
	}
	p.held += n
	if p.r.Buffered() >= n+2 {
		buf, _ := p.r.Peek(n + 2)
		p.r.Discard(n + 2)
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return clientErrf("data block not terminated by CRLF")
		}
		cmd.Data = buf[:n:n]
		return nil
	}
	k := cmd.Keys[0]
	cmd.Keys[0] = p.internKey(unsafe.Slice(unsafe.StringData(k), len(k)))
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

// readLine returns the next CRLF- (or LF-) terminated line without its
// terminator. A line already wholly buffered is a view into the reader's
// buffer, read without a refill (inBuf). Any other needs a refill, which
// inside a chunk that holds a command is ErrUnbuffered; the line a refill
// reads is a view into the buffer too, unless it straddles the buffer and
// spills into a reusable scratch buffer. Semantics mirror the reference
// readLine exactly.
func (p *Parser) readLine() (line []byte, inBuf bool, err error) {
	buf, _ := p.r.Peek(p.r.Buffered())
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		p.r.Discard(i + 1)
		if i+1 > MaxLineLen+2 { // +2 allows the CRLF terminator itself
			return nil, false, ErrLineTooLong
		}
		return trimCRLF(buf[:i+1]), true, nil
	}
	if p.chunk && p.n > 0 {
		return nil, false, ErrUnbuffered
	}
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
