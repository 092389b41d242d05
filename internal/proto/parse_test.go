package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"unsafe"
)

func newTestParser(input string) *Parser {
	return NewParser(bufio.NewReader(strings.NewReader(input)))
}

// TestParserPipelinedSequence drives one parser over a pipelined stream
// mixing every command family and checks each parsed command in order.
func TestParserPipelinedSequence(t *testing.T) {
	p := newTestParser("get a\r\n" +
		"gets a b c\r\n" +
		"set k 7 30 5\r\nhello\r\n" +
		"cas k 0 0 2 42 noreply\r\nhi\r\n" +
		"delete k noreply\r\n" +
		"incr n 18446744073709551615\r\n" +
		"decr n 2\r\n" +
		"touch k -1\r\n" +
		"version\r\n" +
		"quit\r\n")
	defer p.Close()

	steps := []func(c *Command){
		func(c *Command) {
			if c.Name != "get" || len(c.Keys) != 1 || c.Keys[0] != "a" {
				t.Fatalf("get: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "gets" || len(c.Keys) != 3 || c.Keys[0] != "a" || c.Keys[1] != "b" || c.Keys[2] != "c" {
				t.Fatalf("gets: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "set" || c.Keys[0] != "k" || c.Flags != 7 || c.Exptime != 30 ||
				c.Bytes != 5 || string(c.Data) != "hello" || c.NoReply {
				t.Fatalf("set: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "cas" || c.CasID != 42 || string(c.Data) != "hi" || !c.NoReply {
				t.Fatalf("cas: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "delete" || c.Keys[0] != "k" || !c.NoReply {
				t.Fatalf("delete: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "incr" || c.Delta != 18446744073709551615 {
				t.Fatalf("incr: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "decr" || c.Delta != 2 {
				t.Fatalf("decr: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "touch" || c.Exptime != -1 {
				t.Fatalf("touch: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "version" {
				t.Fatalf("version: %+v", c)
			}
		},
		func(c *Command) {
			if c.Name != "quit" {
				t.Fatalf("quit: %+v", c)
			}
		},
	}
	for i, check := range steps {
		cmd, err := p.ReadCommand()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		check(cmd)
	}
	if _, err := p.ReadCommand(); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

// TestParserTokenizing pins the tokenizer's byte-level behavior: space runs
// collapse, tabs are token bytes (and fail key validation), trailing CRs are
// stripped with the line terminator, and verbs match case-insensitively.
func TestParserTokenizing(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		keys    []string
		wantErr bool
	}{
		{in: "get   a   b\r\n", name: "get", keys: []string{"a", "b"}},
		{in: "  get a\r\n", name: "get", keys: []string{"a"}},
		{in: "GET a\r\n", name: "get", keys: []string{"a"}},
		{in: "GeT a\r\n", name: "get", keys: []string{"a"}},
		{in: "get a\n", name: "get", keys: []string{"a"}},
		{in: "get a\r\r\n", name: "get", keys: []string{"a"}}, // trailing CRs trimmed
		{in: "get\ta\r\n", wantErr: true},                     // tab is not a separator
		{in: "get a\tb\r\n", wantErr: true},                   // tab inside a key
		{in: "get " + strings.Repeat("k", MaxKeyLen) + "\r\n", name: "get",
			keys: []string{strings.Repeat("k", MaxKeyLen)}},
		{in: "get " + strings.Repeat("k", MaxKeyLen+1) + "\r\n", wantErr: true},
		{in: "\r\n", wantErr: true},
		{in: "set k 99999999999 0 2\r\nhi\r\n", wantErr: true}, // flags overflow uint32
	}
	for _, tc := range cases {
		p := newTestParser(tc.in)
		cmd, err := p.ReadCommand()
		if tc.wantErr {
			var ce *ClientError
			if !errors.As(err, &ce) {
				t.Fatalf("%q: want ClientError, got cmd=%+v err=%v", tc.in, cmd, err)
			}
			p.Close()
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if cmd.Name != tc.name || len(cmd.Keys) != len(tc.keys) {
			t.Fatalf("%q: got %+v", tc.in, cmd)
		}
		for i := range tc.keys {
			if cmd.Keys[i] != tc.keys[i] {
				t.Fatalf("%q: key %d = %q, want %q", tc.in, i, cmd.Keys[i], tc.keys[i])
			}
		}
		p.Close()
	}
}

// TestParserCommandLifetime verifies the documented ownership rule: a
// command's Keys and Data are valid until the next ReadCommand, and the next
// command does not inherit stale state from the previous one.
func TestParserCommandLifetime(t *testing.T) {
	p := newTestParser("set k1 1 2 3\r\nabc\r\nget other\r\n")
	defer p.Close()
	c1, err := p.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	key1 := strings.Clone(c1.Keys[0])
	data1 := bytes.Clone(c1.Data)
	c2, err := p.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Name != "get" || c2.Keys[0] != "other" {
		t.Fatalf("second command: %+v", c2)
	}
	if c2.Data != nil || c2.Bytes != 0 || c2.Flags != 0 || c2.NoReply {
		t.Fatalf("second command inherited storage state: %+v", c2)
	}
	if key1 != "k1" || string(data1) != "abc" {
		t.Fatalf("first command's cloned operands corrupted: %q %q", key1, data1)
	}
}

// TestParserLineSpill exercises the slow path where a line straddles the
// bufio buffer: a tiny reader forces the spill buffer on a multi-key get.
func TestParserLineSpill(t *testing.T) {
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = strings.Repeat("k", 100)
	}
	line := "get " + strings.Join(keys, " ") + "\r\n" // ~4 KiB line
	p := NewParser(bufio.NewReaderSize(strings.NewReader(line+"get a\r\n"), 16))
	defer p.Close()
	cmd, err := p.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmd.Keys) != len(keys) {
		t.Fatalf("got %d keys, want %d", len(cmd.Keys), len(keys))
	}
	for _, k := range cmd.Keys {
		if k != keys[0] {
			t.Fatalf("corrupted key %q", k)
		}
	}
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Keys[0] != "a" {
		t.Fatalf("command after spill: %+v, %v", cmd, err)
	}
}

// TestParserLineTooLongBoundary pins the exact cutoff: a command line of
// MaxLineLen bytes parses; one byte more is ErrLineTooLong. Padding with
// spaces keeps the key legal while controlling the line length precisely.
func TestParserLineTooLongBoundary(t *testing.T) {
	build := func(lineLen int) string {
		key := strings.Repeat("k", MaxKeyLen)
		pad := lineLen - len("get ") - len(key)
		return "get " + strings.Repeat(" ", pad) + key + "\r\n"
	}
	p := newTestParser(build(MaxLineLen))
	cmd, err := p.ReadCommand()
	if err != nil {
		t.Fatalf("line of exactly MaxLineLen: %v", err)
	}
	if len(cmd.Keys) != 1 || len(cmd.Keys[0]) != MaxKeyLen {
		t.Fatalf("boundary line parsed wrong: %+v", cmd)
	}
	p.Close()

	p = newTestParser(build(MaxLineLen + 1))
	if _, err := p.ReadCommand(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("line of MaxLineLen+1: want ErrLineTooLong, got %v", err)
	}
	p.Close()
}

// TestParserGetAllocs gates the tentpole claim at the parser layer: a warm
// parser reads line commands with zero heap allocations per command.
func TestParserGetAllocs(t *testing.T) {
	stream := []byte(strings.Repeat("get somekey012345\r\ngets a b\r\nincr ctr 7\r\ndelete d noreply\r\n", 25))
	src := bytes.NewReader(stream)
	br := bufio.NewReaderSize(src, 1<<14)
	p := NewParser(br)
	defer p.Close()
	allocs := testing.AllocsPerRun(50, func() {
		src.Reset(stream)
		br.Reset(src)
		for {
			if _, err := p.ReadCommand(); err != nil {
				if err == io.EOF {
					return
				}
				t.Fatal(err)
			}
		}
	})
	// 100 commands per run; anything above rounding noise means a per-command
	// allocation crept in.
	if allocs > 0.5 {
		t.Fatalf("line commands allocate %.2f objects per 100-command run, want 0", allocs)
	}
}

// TestParserSetAllocs gates the storage path: a warm parser reads SETs
// whose data blocks are already buffered as views into the reader's buffer,
// with no allocation and no pool traffic, under the race detector too.
func TestParserSetAllocs(t *testing.T) {
	stream := []byte(strings.Repeat("set k 0 0 100\r\n"+strings.Repeat("v", 100)+"\r\n", 50))
	src := bytes.NewReader(stream)
	br := bufio.NewReaderSize(src, 1<<14)
	p := NewParser(br)
	defer p.Close()
	allocs := testing.AllocsPerRun(50, func() {
		src.Reset(stream)
		br.Reset(src)
		for {
			if _, err := p.ReadCommand(); err != nil {
				if err == io.EOF {
					return
				}
				t.Fatal(err)
			}
		}
	})
	if allocs > 0.5 {
		t.Fatalf("SETs allocate %.2f objects per 50-command run, want 0", allocs)
	}
}

// TestParserChunkKeepsCommands: inside a chunk every command parsed so far
// keeps its keys, data and fields while later ones are parsed — here keys
// and data blocks viewing one fully buffered stream while the command array
// grows. Keys copied into a growing key buffer are covered by the tests of
// spilled lines and straddling blocks.
func TestParserChunkKeepsCommands(t *testing.T) {
	var stream strings.Builder
	var want []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d-%s", i, strings.Repeat("x", i))
		if i%3 == 0 {
			fmt.Fprintf(&stream, "set %s %d 0 %d\r\n%s\r\n", k, i, len(k), k)
		} else {
			fmt.Fprintf(&stream, "get %s %s\r\n", k, k)
		}
		want = append(want, k)
	}
	p := NewParser(bufio.NewReaderSize(strings.NewReader(stream.String()), 1<<20)) // the whole stream buffered
	defer p.Close()
	p.BeginChunk()
	var cmds []*Command
	for range want {
		cmd, err := p.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	held := 0
	for i, c := range cmds {
		k := want[i]
		switch {
		case c.Keys[0] != k:
			t.Fatalf("command %d: key %q, want %q", i, c.Keys[0], k)
		case i%3 == 0 && (c.Name != "set" || string(c.Data) != k || c.Flags != uint32(i)):
			t.Fatalf("command %d: %s flags %d data %q", i, c.Name, c.Flags, c.Data)
		case i%3 != 0 && (c.Name != "get" || len(c.Keys) != 2 || c.Keys[1] != k):
			t.Fatalf("command %d: %s %q", i, c.Name, c.Keys)
		}
		held += len(c.Data)
	}
	if p.ChunkData() != held {
		t.Fatalf("ChunkData = %d, the chunk's data blocks hold %d bytes", p.ChunkData(), held)
	}
}

// readChunk opens a chunk and reads until ReadCommand stops before a
// command not wholly buffered (ErrUnbuffered), reaches EOF, or has max
// commands. It reports whether the stream ended.
func readChunk(t *testing.T, p *Parser, max int) (cmds []*Command, eof bool) {
	t.Helper()
	p.BeginChunk()
	for len(cmds) < max {
		cmd, err := p.ReadCommand()
		switch {
		case err == ErrUnbuffered:
			return cmds, false
		case err == io.EOF:
			return cmds, true
		case err != nil:
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	return cmds, false
}

// TestParserChunkStopsBeforePartial: inside a chunk that holds a command,
// ReadCommand stops before a command not wholly in the reader's buffer — a
// data block or a line that straddles it — instead of refilling the buffer
// under the chunk's commands. Once the chunk is released, the next read
// returns that command whole, even though, as the new chunk's first, it
// must refill.
func TestParserChunkStopsBeforePartial(t *testing.T) {
	block := strings.Repeat("b", 1000)
	var stream strings.Builder
	for i := 0; i < 5; i++ { // 1 019 bytes each: the fifth's block straddles 4 096
		fmt.Fprintf(&stream, "set k%d 0 0 %d\r\n%s\r\n", i, len(block), block)
	}
	for stream.Len()%4096 < 4090 { // fill to just short of the next 4 096
		stream.WriteString("get a\r\n")
	}
	stream.WriteString("get straddling\r\nget last\r\n")
	p := NewParser(bufio.NewReaderSize(strings.NewReader(stream.String()), 4096))
	defer p.Close()

	cmds, _ := readChunk(t, p, 1<<10)
	if len(cmds) != 4 || len(p.data) != 0 || p.ChunkData() != 4*len(block) {
		t.Fatalf("first chunk: %d commands, %d pooled buffers, %d data bytes; want 4, 0, %d",
			len(cmds), len(p.data), p.ChunkData(), 4*len(block))
	}
	for i, c := range cmds {
		if c.Keys[0] != fmt.Sprintf("k%d", i) || string(c.Data) != block {
			t.Fatalf("command %d of the stopped chunk: %q, %d data bytes", i, c.Keys, len(c.Data))
		}
	}
	p.ReleaseChunk()

	cmds, _ = readChunk(t, p, 1<<10)
	if len(cmds) < 2 || cmds[0].Name != "set" || cmds[0].Keys[0] != "k4" || string(cmds[0].Data) != block {
		t.Fatalf("second chunk opened with %d commands, first %+v", len(cmds), cmds[0])
	}
	for _, c := range cmds[1:] {
		if c.Name != "get" || c.Keys[0] != "a" {
			t.Fatalf("second chunk: %s %q, want get a", c.Name, c.Keys)
		}
	}
	p.ReleaseChunk()

	if cmds, _ = readChunk(t, p, 1<<10); len(cmds) != 2 || cmds[0].Keys[0] != "straddling" || cmds[1].Keys[0] != "last" {
		t.Fatalf("third chunk: %d commands", len(cmds))
	}
	p.ReleaseChunk()
	if _, err := p.ReadCommand(); err != io.EOF {
		t.Fatalf("after the stream: %v, want EOF", err)
	}
}

// TestParserChunkReleasesBuffers: a data block wholly in the reader's
// buffer is a view into it and holds no pooled buffer. A block that
// straddles the buffer, or outgrows it, needs a refill, so it opens a chunk
// of its own and is read into a pooled buffer: a chunk holds at most that
// one, as its first command's, until ReleaseChunk or Close hands it back
// (bufpool.Put empties the buffer it takes, which is what is checked here).
// Outside a chunk the parser holds at most one buffer at a time.
func TestParserChunkReleasesBuffers(t *testing.T) {
	sizes := []int{10, 100, 1000, 3000, 5000, 1, 300}
	var stream strings.Builder
	for i, n := range sizes {
		fmt.Fprintf(&stream, "set k%d 0 0 %d\r\n%s\r\nget k%d\r\n", n, n, strings.Repeat(string(rune('a'+i)), n), n)
	}
	value := map[string]string{}
	for i, n := range sizes {
		value[fmt.Sprintf("k%d", n)] = strings.Repeat(string(rune('a'+i)), n)
	}
	for _, end := range []string{"ReleaseChunk", "Close"} {
		p := NewParser(bufio.NewReaderSize(strings.NewReader(stream.String()), 4096))
		// The 3 000-byte block straddles the 4 096-byte reader and the
		// 5 000-byte one outgrows it: two chunks start with a pooled block.
		var pooled []int
		for chunk, eof := 0, false; !eof; chunk++ {
			var cmds []*Command
			cmds, eof = readChunk(t, p, 1<<10)
			for _, c := range cmds {
				if c.Name == "set" && string(c.Data) != value[c.Keys[0]] {
					t.Fatalf("chunk %d: set %q holds %d bytes before the chunk was released", chunk, c.Keys, len(c.Data))
				}
			}
			if len(p.data) > 1 || len(p.data) == 1 && unsafe.SliceData(*p.data[0]) != unsafe.SliceData(cmds[0].Data) {
				t.Fatalf("chunk %d holds %d pooled buffers, want at most its first block's", chunk, len(p.data))
			}
			held := append([]*[]byte(nil), p.data...)
			if len(held) > 0 {
				pooled = append(pooled, len(cmds[0].Data))
			}
			last := end == "Close" && len(pooled) == 2
			if last {
				p.Close()
			} else {
				p.ReleaseChunk()
			}
			for i, b := range held {
				if len(*b) != 0 {
					t.Fatalf("%s: buffer %d (%d bytes) was not given back to the pool", end, i, len(*b))
				}
			}
			if len(p.data) != 0 || p.ChunkData() != 0 {
				t.Fatalf("%s: parser still holds %d buffers, %d bytes", end, len(p.data), p.ChunkData())
			}
			if last {
				break
			}
		}
		if len(pooled) != 2 || pooled[0] != 3000 || pooled[1] != 5000 {
			t.Fatalf("%s: chunks opened with pooled blocks of %v bytes, want [3000 5000]", end, pooled)
		}
	}
	p := NewParser(bufio.NewReaderSize(strings.NewReader(stream.String()), 4096))
	defer p.Close()
	for i := 0; i < 2*len(sizes); i++ {
		if _, err := p.ReadCommand(); err != nil {
			t.Fatal(err)
		}
		if len(p.data) > 1 {
			t.Fatalf("outside a chunk, command %d left %d buffers held", i, len(p.data))
		}
	}
}
