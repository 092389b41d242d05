package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// requestSeeds covers every verb, noreply variants, bad lengths, and
// truncated frames.
var requestSeeds = []string{
	"get k\r\n",
	"gets a b c\r\n",
	"get \r\n",
	"get " + strings.Repeat("k", 300) + "\r\n",
	"set k 0 0 5\r\nhello\r\n",
	"set k 0 0 5 noreply\r\nhello\r\n",
	"set k 4294967295 2592000 0\r\n\r\n",
	"set k -1 0 5\r\nhello\r\n",
	"set k 0 0 -1\r\n",
	"set k 0 0 99999999999\r\n",
	"set k 0 0 5\r\nhel", // truncated data block
	"set k 0 0\r\n",      // missing bytes operand
	"add k 0 0 1\r\nx\r\n",
	"replace k 0 0 1\r\nx\r\n",
	"cas k 0 0 2 42\r\nhi\r\n",
	"cas k 0 0 2 notanumber\r\nhi\r\n",
	"delete k\r\n",
	"delete k noreply\r\n",
	"delete\r\n",
	"incr k 1\r\n",
	"incr k 18446744073709551615\r\n",
	"decr k 2 noreply\r\n",
	"decr k x\r\n",
	"touch k 30\r\n",
	"touch k -1 noreply\r\n",
	"stats\r\n",
	"flush_all\r\n",
	"version\r\n",
	"quit\r\n",
	"bogus stuff\r\n",
	"\r\n",
	"",
	"set k 0 0 3\r\nab\r\nget k\r\n", // CRLF landing inside the count
	"get k\nget j\n",                 // bare-LF lines
	"\x00\x80\xff\r\n",
	strings.Repeat("a", MaxLineLen+10) + "\r\n",
	// Pipelined mixed traffic: the steady-state shape the in-place parser
	// is optimized for.
	"get a\r\nget b\r\nset k 0 0 3\r\nabc\r\nget c\r\n",
	// Tenant-qualified keys: one separator is valid, a leading or second
	// separator is a client error the parsers must agree on.
	"get t/k\r\nset t/k 0 0 1\r\nx\r\n",
	"get /k\r\n",
	"set a/b/c 0 0 1\r\nx\r\n",
	"delete t/\r\n",
	"incr n 1\r\ndecr n 1\r\ntouch k 5\r\ndelete k\r\nstats\r\n",
	// Boundary-length lines around MaxLineLen (the +-1 neighbors come from
	// mutation).
	"get " + strings.Repeat(" ", MaxLineLen-4-250) + strings.Repeat("k", 250) + "\r\n",
	strings.Repeat("g", MaxLineLen) + "\r\n",
	strings.Repeat("g", MaxLineLen+1) + "\r\n",
	// A valid multi-key get longer than the default bufio buffer: the
	// in-place parser must spill and still agree with the reference.
	"get " + strings.Repeat(strings.Repeat("k", 200)+" ", 25) + "\r\nget a\r\n",
	// Tokenizer edges: tabs are token bytes, space runs collapse, verbs
	// match case-insensitively, trailing CRs are trimmed.
	"get\ta\r\n",
	"get   a   b\r\n",
	"SET K 0 0 2\r\nhi\r\n",
	"GeT k\r\n",
	"get k\r\r\n",
	"get " + strings.Repeat("k", 250) + "\r\n",
	"set k +0 +0 +1\r\nx\r\n",
	"append k 0 0 4\r\ntail\r\n",
	"prepend k 0 0 4 noreply\r\nhead\r\n",
	"append k 0 0\r\n",
}

// straddleSeed is a pipelined stream whose fourteenth data block straddles
// the harness's 4 096-byte readers: the in-place parser's chunk holds
// thirteen stores and gets, which are checked again when it ends before the
// straddling store, and the stores after it fill the whole refilled buffer.
func straddleSeed() string {
	var b strings.Builder
	for i := 0; i < 13; i++ {
		fmt.Fprintf(&b, "set k%d 0 0 250\r\n%s\r\nget k%d k%d\r\n", i, strings.Repeat(string(rune('a'+i)), 250), i, i+1)
	}
	fmt.Fprintf(&b, "set big 0 0 1000\r\n%s\r\nget big k0\r\n", strings.Repeat("z", 1000))
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "set m%d 0 0 400\r\n%s\r\n", i, strings.Repeat(string(rune('A'+i)), 400))
	}
	return b.String()
}

// errKind buckets parser errors into the classes the differential harness
// compares: the two parsers must fail the same way, not with the same prose.
type errKind int

const (
	errNone errKind = iota
	errClient
	errEOF
	errTooLong
	errOther
)

func classifyErr(err error) errKind {
	var ce *ClientError
	switch {
	case err == nil:
		return errNone
	case errors.As(err, &ce):
		return errClient
	case errors.Is(err, io.EOF):
		return errEOF
	case errors.Is(err, ErrLineTooLong):
		return errTooLong
	default:
		return errOther
	}
}

// FuzzParseRequest is a differential harness: the allocating reference
// parser (the executable spec) and the in-place hot-path Parser consume the
// same byte stream through same-sized readers and must agree at every step —
// same error class or a field-for-field identical Command. A ClientError
// leaves both parsers resynchronized at the same stream offset (both consume
// exactly the offending frame), so the comparison continues past it.
//
// The in-place parser runs in chunks, as the server drives it: bit i of cuts
// ends a chunk after step i, and so does a command not wholly buffered. Before each chunk is released, every command
// parsed in it is compared again, so a command that the rest of its chunk
// overwrote (keys, data, fields) fails here. Every accepted command is also
// rendered back with AppendCommand, and the reference parser must read the
// same command from the rendering.
func FuzzParseRequest(f *testing.F) {
	for i, s := range requestSeeds {
		f.Add([]byte(s), uint64(i)*0x9e3779b97f4a7c15) // assorted cut patterns
	}
	f.Add([]byte(straddleSeed()), uint64(0)) // one chunk until the straddling block ends it
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		r1 := bufio.NewReaderSize(bytes.NewReader(data), 4096)
		r2 := bufio.NewReaderSize(bytes.NewReader(data), 4096)
		p := NewParser(r2)
		defer p.Close()
		var refs, chunk []*Command
		recheck := func() {
			for j, c := range chunk {
				if msg := commandDiff(refs[j], c); msg != "" {
					t.Fatalf("command %d of its chunk changed before the chunk was released: %s", j, msg)
				}
			}
			refs, chunk = refs[:0], chunk[:0]
		}
		p.BeginChunk()
		for i := 0; i < 64; i++ {
			if i > 0 && cuts&(1<<(i-1)) != 0 {
				recheck()
				p.ReleaseChunk()
				p.BeginChunk()
			}
			c1, err1 := ReadCommand(r1)
			c2, err2 := p.ReadCommand()
			if err2 == ErrUnbuffered { // the chunk ends before a refill
				recheck()
				p.ReleaseChunk()
				p.BeginChunk()
				c2, err2 = p.ReadCommand()
			}
			k1, k2 := classifyErr(err1), classifyErr(err2)
			if k1 != k2 {
				t.Fatalf("step %d: parsers disagree on error class: reference %v, in-place %v", i, err1, err2)
			}
			switch k1 {
			case errClient:
				continue // both resynchronized identically
			case errEOF, errTooLong:
				recheck()
				return // framing is gone; servers close the connection here
			case errOther:
				t.Fatalf("step %d: unexpected error class: %v", i, err1)
			}
			if msg := commandDiff(c1, c2); msg != "" {
				t.Fatalf("step %d: %s", i, msg)
			}
			// The renderer inverts the spec: what the parsers accepted,
			// rendered back, reads as the same command.
			wire := AppendCommand(nil, c1)
			c3, err := ReadCommand(bufio.NewReader(bytes.NewReader(wire)))
			if err != nil {
				t.Fatalf("step %d: re-render %q does not parse: %v", i, wire, err)
			}
			if msg := commandDiff(c1, c3); msg != "" {
				t.Fatalf("step %d: re-render %q: %s", i, wire, msg)
			}
			refs, chunk = append(refs, c1), append(chunk, c2)
			// Shared invariants, checked once (the parsers already agree).
			if c1.Verb >= numVerbs {
				t.Fatalf("parsed command with unknown verb %v", c1.Verb)
			}
			for _, k := range c1.Keys {
				if len(k) == 0 || len(k) > MaxKeyLen {
					t.Fatalf("accepted key of length %d", len(k))
				}
			}
			if c1.Bytes < 0 || c1.Bytes > MaxDataLen {
				t.Fatalf("accepted data length %d", c1.Bytes)
			}
			if len(c1.Data) != c1.Bytes {
				t.Fatalf("data length %d disagrees with bytes operand %d", len(c1.Data), c1.Bytes)
			}
		}
		recheck()
	})
}

// commandDiff describes how the in-place parser's c2 differs from the
// reference parser's c1, field for field, or returns "".
func commandDiff(c1, c2 *Command) string {
	if c1.Verb != c2.Verb || c1.Flags != c2.Flags || c1.Exptime != c2.Exptime ||
		c1.Bytes != c2.Bytes || c1.CasID != c2.CasID || c1.Delta != c2.Delta ||
		c1.NoReply != c2.NoReply {
		return fmt.Sprintf("commands disagree:\nreference %+v\nin-place  %+v", c1, c2)
	}
	if len(c1.Keys) != len(c2.Keys) {
		return fmt.Sprintf("key counts disagree: %v vs %v", c1.Keys, c2.Keys)
	}
	for j := range c1.Keys {
		if c1.Keys[j] != c2.Keys[j] {
			return fmt.Sprintf("key %d disagrees: %q vs %q", j, c1.Keys[j], c2.Keys[j])
		}
	}
	if !bytes.Equal(c1.Data, c2.Data) {
		return fmt.Sprintf("data disagrees: %q vs %q", c1.Data, c2.Data)
	}
	return ""
}

// responseSeeds covers every reply shape, bad lengths, and truncated frames.
var responseSeeds = []string{
	"END\r\n",
	"VALUE k 0 5\r\nhello\r\nEND\r\n",
	"VALUE k 9 2 77\r\nhi\r\nVALUE j 0 0\r\n\r\nEND\r\n",
	"VALUE k 0 5\r\nhel", // truncated data
	"VALUE k 0 -1\r\n",   // bad length
	"VALUE k 0 2000000\r\n",
	"VALUE k notaflag 2\r\nhi\r\n",
	"VALUE\r\n",
	"STORED\r\n",
	"NOT_STORED\r\n",
	"EXISTS\r\n",
	"NOT_FOUND\r\n",
	"DELETED\r\n",
	"TOUCHED\r\n",
	"OK\r\n",
	"ERROR\r\n",
	"CLIENT_ERROR malformed thing\r\n",
	"SERVER_ERROR backend down\r\n",
	"VERSION pamakv/1.0\r\n",
	"STAT cmd_get 12\r\nSTAT policy pama\r\nEND\r\n",
	"STAT incomplete\r\n",
	"17\r\n",
	"18446744073709551615\r\n",
	"99 trailing\r\n",
	"\r\n",
	"",
	"garbage line\r\n",
	strings.Repeat("V", MaxLineLen+10) + "\r\n",
}

// clientRespSeeds extend responseSeeds with the shapes a pipelining client
// sees: back-to-back responses, truncated and oversized blocks, and END
// landing inside a data block rather than on a line of its own.
var clientRespSeeds = []string{
	// Pipelined mixed traffic: the steady-state shape RespReader serves.
	"VALUE k 0 5\r\nhello\r\nEND\r\nSTORED\r\nEND\r\n17\r\nDELETED\r\n",
	"END\r\nEND\r\nEND\r\n",
	"VALUE k 0 3\r\nab",                               // truncated mid-data
	"VALUE k 0 3\r\nabc\r",                            // truncated mid-terminator
	"VALUE k 0 1048577\r\n" + strings.Repeat("x", 64), // oversized block
	// END as data bytes, interleaved with END terminators: framing must
	// come from declared lengths, never from scanning for the word.
	"VALUE a 0 3\r\nEND\r\nVALUE b 0 5\r\nEND\r\n\r\nEND\r\n",
	"VALUE a 0 2\r\nEN\r\nEND extra tokens\r\n",
	"STAT a 1\r\nVALUE k 0 2\r\nhi\r\nSTAT b 2 3\r\nEND\r\n", // interleaved STAT/VALUE
	"VALUE k 1 2 99\r\nhi\r\nEND\r\n",
	"SERVER_ERROR busy (shed)\r\nEND\r\n",
	"VERSION 1.6.21  with   runs\r\n",
	"VALUE " + strings.Repeat("k", 250) + " 0 0\r\n\r\nEND\r\n",
	"VALUE k 0 +1\r\nx\r\nEND\r\n",
}

// FuzzClientReadResponse is the response-side differential harness: the
// allocating ReadResponse (the executable spec) and the in-place pipelined
// RespReader consume the same byte stream through same-sized readers and
// must agree at every step — same error class or a field-for-field identical
// response. A ClientError leaves both at the same stream offset (both
// consume exactly the offending frame), so the comparison continues past it.
func FuzzClientReadResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	for _, s := range clientRespSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r1 := bufio.NewReaderSize(bytes.NewReader(data), 4096)
		r2 := bufio.NewReaderSize(bytes.NewReader(data), 4096)
		rr := NewRespReader(r2)
		for i := 0; i < 64; i++ {
			ref, err1 := ReadResponse(r1)
			got, err2 := rr.Next()
			k1, k2 := classifyErr(err1), classifyErr(err2)
			if k1 != k2 {
				t.Fatalf("step %d: readers disagree on error class: reference %v, in-place %v", i, err1, err2)
			}
			switch k1 {
			case errClient:
				continue // both resynchronized identically
			case errEOF, errTooLong:
				return // framing is gone; clients close the connection here
			case errOther:
				t.Fatalf("step %d: unexpected error class: %v", i, err1)
			}
			if ref.Status != got.Status {
				t.Fatalf("step %d: status %v vs %v", i, ref.Status, got.Status)
			}
			if ref.Message != string(got.Msg) {
				t.Fatalf("step %d: message %q vs %q", i, ref.Message, got.Msg)
			}
			if ref.Number != got.Number {
				t.Fatalf("step %d: number %d vs %d", i, ref.Number, got.Number)
			}
			if len(ref.Values) != len(got.Values) {
				t.Fatalf("step %d: value counts %d vs %d", i, len(ref.Values), len(got.Values))
			}
			for j, v := range ref.Values {
				g := got.Values[j]
				if v.Key != string(g.Key) || v.Flags != g.Flags || v.CAS != g.CAS || !bytes.Equal(v.Data, g.Data) {
					t.Fatalf("step %d: value %d: reference %+v, in-place %+v", i, j, v, g)
				}
			}
			if len(ref.Stats) != len(got.Stats) {
				t.Fatalf("step %d: stat counts %d vs %d", i, len(ref.Stats), len(got.Stats))
			}
			for j, st := range ref.Stats {
				g := got.Stats[j]
				if st[0] != string(g[0]) || st[1] != string(g[1]) {
					t.Fatalf("step %d: stat %d: reference %v, in-place %q/%q", i, j, st, g[0], g[1])
				}
			}
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			resp, err := ReadResponse(r)
			if err != nil {
				var ce *ClientError
				switch {
				case errors.As(err, &ce):
					continue
				case errors.Is(err, io.EOF), errors.Is(err, ErrLineTooLong):
					return
				default:
					t.Fatalf("unexpected error class: %v", err)
				}
			}
			if int(resp.Status) >= len(statusNames) {
				t.Fatalf("parsed response with unknown status %v", resp.Status)
			}
			for _, v := range resp.Values {
				if len(v.Data) > MaxDataLen {
					t.Fatalf("accepted value of %d bytes", len(v.Data))
				}
				if len(v.Key) == 0 || len(v.Key) > MaxKeyLen {
					t.Fatalf("accepted key of length %d", len(v.Key))
				}
			}
		}
	})
}
