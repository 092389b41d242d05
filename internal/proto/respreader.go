package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// RespReader is the client-side counterpart of Parser: a pipelined response
// reader that parses status lines in place over the bufio.Reader's buffer
// and accumulates VALUE keys and bodies in a reusable arena. One RespReader
// serves one connection; it is not safe for concurrent use.
//
// In steady state Next performs zero heap allocations: line tokens are views
// into the reader's buffer, value keys and data are copied into an arena
// that is reset (not freed) per response, and the Values slice is reused.
//
// Ownership rules — the price of zero-copy:
//
//   - The returned *Resp and everything it references (keys, data, Msg,
//     stats) are valid only until the next Next call.
//   - A caller that keeps a value beyond the current response (cache fill,
//     result set) must copy the bytes first.
//
// The allocating reference parser (ReadResponse in reference_test.go) is the
// executable spec; the FuzzClientReadResponse harness drives both over
// identical streams and requires agreement on every input.
type RespReader struct {
	r *bufio.Reader

	resp   Resp
	toks   [][]byte
	values []RValue
	stats  [][2][]byte

	// arena holds the current response's value keys, bodies, stat lines,
	// and message; views into it are materialized only once the terminal
	// line has been read, so mid-parse growth cannot dangle them.
	arena []byte
	vmeta []rvalMeta
	smeta []statMeta
	msg   span

	// linebuf is the spill buffer for lines straddling the bufio buffer.
	linebuf []byte
}

// span is a half-open interval into the arena.
type span struct{ off, end int }

// rvalMeta records one VALUE block's arena intervals until views can be
// materialized safely.
type rvalMeta struct {
	key, data span
	flags     uint32
	cas       uint64
}

// statMeta records one STAT line's arena intervals.
type statMeta struct{ name, value span }

// RValue is one VALUE block of a response, as views into the reader's arena.
type RValue struct {
	Key   []byte
	Flags uint32
	// CAS is the token from a gets reply; 0 when the block carried none.
	CAS  uint64
	Data []byte
}

// Resp is one complete server reply as RespReader parses it: the terminal
// status plus any VALUE blocks and STAT lines that preceded it. Everything
// it references is valid only until the reader's next Next call.
type Resp struct {
	Status Status
	// Msg carries the remainder of an error or VERSION line.
	Msg []byte
	// Number is the parsed result when Status == StatusNumber.
	Number uint64
	// Values collects the VALUE blocks of a get/gets reply.
	Values []RValue
	// Stats collects STAT name/value pairs of a stats reply.
	Stats [][2][]byte
}

// IsShed reports whether the response is a deliberate overload shed (see
// AppendShed) rather than a genuine server fault.
func (r *Resp) IsShed() bool {
	return r.Status == StatusServerError && string(r.Msg) == ShedMsg
}

// Response converts r to the allocating reference representation, for
// callers that keep a reply (control traffic, tests) rather than relay it.
func (r *Resp) Response() *Response {
	out := &Response{Status: r.Status, Message: string(r.Msg), Number: r.Number}
	for _, v := range r.Values {
		out.Values = append(out.Values, Value{Key: string(v.Key), Flags: v.Flags, CAS: v.CAS, Data: bytes.Clone(v.Data)})
	}
	for _, st := range r.Stats {
		out.Stats = append(out.Stats, [2]string{string(st[0]), string(st[1])})
	}
	return out
}

// NewRespReader returns a RespReader reading from r.
func NewRespReader(r *bufio.Reader) *RespReader { return &RespReader{r: r} }

// Next parses one complete response from the stream: a single status line
// (STORED, DELETED, a number, ...) or a block response (VALUE/STAT lines
// terminated by END). Malformed input yields a *ClientError; a line-length
// violation yields ErrLineTooLong; io.EOF is returned verbatim on a cleanly
// closed connection — error classes and consumed bytes match ReadResponse
// exactly. See the RespReader doc for the lifetime of the returned Resp.
func (rr *RespReader) Next() (*Resp, error) {
	rr.arena = rr.arena[:0]
	rr.vmeta = rr.vmeta[:0]
	rr.smeta = rr.smeta[:0]
	rr.msg = span{}
	resp := &rr.resp
	*resp = Resp{}
	for {
		line, err := rr.readLine()
		if err != nil {
			return nil, err
		}
		rr.toks = splitTokens(line, rr.toks[:0])
		if len(rr.toks) == 0 {
			return nil, clientErrf("empty response line")
		}
		tok := rr.toks[0]
		switch {
		case string(tok) == "VALUE":
			if len(rr.vmeta) >= maxResponseBlocks {
				return nil, clientErrf("response exceeds %d VALUE blocks", maxResponseBlocks)
			}
			if err := rr.parseValue(rr.toks[1:]); err != nil {
				return nil, err
			}
		case string(tok) == "STAT":
			if len(rr.smeta) >= maxResponseBlocks {
				return nil, clientErrf("response exceeds %d STAT lines", maxResponseBlocks)
			}
			if len(rr.toks) < 3 {
				return nil, clientErrf("STAT line needs a name and a value")
			}
			rr.smeta = append(rr.smeta, statMeta{
				name:  rr.intern(rr.toks[1]),
				value: rr.join(rr.toks[2:]),
			})
		default:
			st, known := wireStatus(tok)
			switch {
			case known && (st == StatusClientError || st == StatusServerError || st == StatusVersion):
				resp.Status = st
				rr.msg = rr.join(rr.toks[1:])
				return rr.finish(), nil
			case known:
				resp.Status = st
				return rr.finish(), nil
			default:
				if n, ok := parseUintB(tok, 64); ok && len(rr.toks) == 1 {
					resp.Status = StatusNumber
					resp.Number = n
					return rr.finish(), nil
				}
				return nil, clientErrf("unparseable response line %q", line)
			}
		}
	}
}

// parseValue parses the operands of a VALUE line ("<key> <flags> <bytes>
// [<cas>]") and consumes the data block into the arena. Validation order and
// consumed bytes mirror parseValueBlock exactly.
func (rr *RespReader) parseValue(args [][]byte) error {
	if len(args) != 3 && len(args) != 4 {
		return clientErrf("VALUE line needs <key> <flags> <bytes> [<cas>]")
	}
	if err := checkKey(args[0]); err != nil {
		return err
	}
	flags, ok := parseUintB(args[1], 32)
	if !ok {
		return clientErrf("bad flags %q", args[1])
	}
	n, ok := parseIntB(args[2])
	if !ok || n < 0 || n > MaxDataLen {
		return clientErrf("bad bytes %q", args[2])
	}
	var cas uint64
	if len(args) == 4 {
		cas, ok = parseUintB(args[3], 64)
		if !ok {
			return clientErrf("bad cas token %q", args[3])
		}
	}
	// The key must be copied before the data read invalidates the line view.
	key := rr.intern(args[0])
	// Read the data block plus CRLF straight into the arena, then trim the
	// terminator back off.
	off := len(rr.arena)
	need := int(n) + 2
	rr.arena = grow(rr.arena, need)
	if _, err := io.ReadFull(rr.r, rr.arena[off:]); err != nil {
		return &ClientError{Msg: fmt.Sprintf("short data block: %v", err), Err: err}
	}
	if rr.arena[off+int(n)] != '\r' || rr.arena[off+int(n)+1] != '\n' {
		return clientErrf("data block not terminated by CRLF")
	}
	rr.arena = rr.arena[:off+int(n)]
	rr.vmeta = append(rr.vmeta, rvalMeta{
		key:   key,
		data:  span{off, off + int(n)},
		flags: uint32(flags),
		cas:   cas,
	})
	return nil
}

// intern copies tok into the arena and returns its interval.
func (rr *RespReader) intern(tok []byte) span {
	off := len(rr.arena)
	rr.arena = append(rr.arena, tok...)
	return span{off, len(rr.arena)}
}

// join copies toks into the arena separated by single spaces (matching
// strings.Join(fields, " ") in the reference parser) and returns the
// interval.
func (rr *RespReader) join(toks [][]byte) span {
	off := len(rr.arena)
	for i, tok := range toks {
		if i > 0 {
			rr.arena = append(rr.arena, ' ')
		}
		rr.arena = append(rr.arena, tok...)
	}
	return span{off, len(rr.arena)}
}

// grow extends b by n bytes, reallocating at most once.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), len(b)+n)
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+n]
}

// finish materializes the arena views once the response is complete — the
// arena no longer grows, so the slices stay valid until the next Next call.
func (rr *RespReader) finish() *Resp {
	resp := &rr.resp
	resp.Msg = rr.arena[rr.msg.off:rr.msg.end]
	if len(rr.vmeta) > 0 {
		rr.values = rr.values[:0]
		for _, m := range rr.vmeta {
			rr.values = append(rr.values, RValue{
				Key:   rr.arena[m.key.off:m.key.end],
				Flags: m.flags,
				CAS:   m.cas,
				Data:  rr.arena[m.data.off:m.data.end],
			})
		}
		resp.Values = rr.values
	}
	if len(rr.smeta) > 0 {
		rr.stats = rr.stats[:0]
		for _, m := range rr.smeta {
			rr.stats = append(rr.stats, [2][]byte{
				rr.arena[m.name.off:m.name.end],
				rr.arena[m.value.off:m.value.end],
			})
		}
		resp.Stats = rr.stats
	}
	return resp
}

// readLine reads one line via the shared in-place line reader.
func (rr *RespReader) readLine() ([]byte, error) {
	line, spill, err := readLineFrom(rr.r, rr.linebuf)
	rr.linebuf = spill
	return line, err
}
