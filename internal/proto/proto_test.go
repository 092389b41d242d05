package proto

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"
)

func parse(t *testing.T, in string) (*Command, error) {
	t.Helper()
	return ReadCommand(bufio.NewReader(strings.NewReader(in)))
}

func TestParseGet(t *testing.T) {
	cmd, err := parse(t, "get foo bar\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Verb != VerbGet || len(cmd.Keys) != 2 || cmd.Keys[0] != "foo" || cmd.Keys[1] != "bar" {
		t.Fatalf("cmd = %+v", cmd)
	}
}

func TestParseGetLFOnly(t *testing.T) {
	if _, err := parse(t, "get foo\n"); err != nil {
		t.Fatalf("bare-LF line rejected: %v", err)
	}
}

func TestParseSet(t *testing.T) {
	cmd, err := parse(t, "set k 42 0 5\r\nhello\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Verb != VerbSet || cmd.Keys[0] != "k" || cmd.Flags != 42 || cmd.Bytes != 5 {
		t.Fatalf("cmd = %+v", cmd)
	}
	if string(cmd.Data) != "hello" || cmd.NoReply {
		t.Fatalf("data = %q noreply=%v", cmd.Data, cmd.NoReply)
	}
}

func TestParseSetNoReply(t *testing.T) {
	cmd, err := parse(t, "set k 0 0 2 noreply\r\nhi\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if !cmd.NoReply {
		t.Fatal("noreply not parsed")
	}
}

func TestParseSetBinaryData(t *testing.T) {
	// Data containing CR/LF bytes must be read by length, not by line.
	data := "a\r\nb"
	cmd, err := parse(t, "set k 0 0 4\r\n"+data+"\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if string(cmd.Data) != data {
		t.Fatalf("data = %q", cmd.Data)
	}
}

func TestParseDelete(t *testing.T) {
	cmd, err := parse(t, "delete k noreply\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Verb != VerbDelete || cmd.Keys[0] != "k" || !cmd.NoReply {
		t.Fatalf("cmd = %+v", cmd)
	}
}

func TestParseBareCommands(t *testing.T) {
	for _, name := range []string{"stats", "flush_all", "version", "quit"} {
		cmd, err := parse(t, name+"\r\n")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cmd.Verb.String() != name {
			t.Fatalf("parsed %v, want %q", cmd.Verb, name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"\r\n",
		"get\r\n",
		"frobnicate k\r\n",
		"set k 0 0\r\n",
		"set k x 0 5\r\nhello\r\n",
		"set k 0 x 5\r\nhello\r\n",
		"set k 0 0 x\r\nhello\r\n",
		"set k 0 0 -1\r\n\r\n",
		"set k 0 0 5\r\nhel\r\n", // short data
		"set k 0 0 5\r\nhelloXX", // missing CRLF
		"delete\r\n",
		"delete k extra junk\r\n",
		"get " + strings.Repeat("x", 251) + "\r\n", // key too long
		"get bad\x01key\r\n",
	}
	for _, in := range cases {
		if _, err := parse(t, in); err == nil {
			t.Errorf("accepted %q", in)
		} else {
			var ce *ClientError
			if !errors.As(err, &ce) {
				t.Errorf("%q: error %v is not a ClientError", in, err)
			}
		}
	}
}

func TestParseEOF(t *testing.T) {
	if _, err := parse(t, ""); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestParseSequence(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("set a 0 0 1\r\nx\r\nget a\r\nquit\r\n"))
	for _, want := range []Verb{VerbSet, VerbGet, VerbQuit} {
		cmd, err := ReadCommand(r)
		if err != nil {
			t.Fatal(err)
		}
		if cmd.Verb != want {
			t.Fatalf("got %v, want %v", cmd.Verb, want)
		}
	}
	if _, err := ReadCommand(r); !errors.Is(err, io.EOF) {
		t.Fatal("stream should be exhausted")
	}
}

func TestParseCAS(t *testing.T) {
	cmd, err := parse(t, "cas k 7 0 3 12345\r\nabc\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Verb != VerbCAS || cmd.CasID != 12345 || string(cmd.Data) != "abc" || cmd.Flags != 7 {
		t.Fatalf("cmd = %+v", cmd)
	}
	cmd, err = parse(t, "cas k 0 0 1 5 noreply\r\nx\r\n")
	if err != nil || !cmd.NoReply {
		t.Fatalf("cas noreply: %+v %v", cmd, err)
	}
	if _, err := parse(t, "cas k 0 0 1\r\nx\r\n"); err == nil {
		t.Fatal("cas without token accepted")
	}
	if _, err := parse(t, "cas k 0 0 1 nottoken\r\nx\r\n"); err == nil {
		t.Fatal("bad cas token accepted")
	}
}

func TestParseIncrDecr(t *testing.T) {
	cmd, err := parse(t, "incr counter 5\r\n")
	if err != nil || cmd.Verb != VerbIncr || cmd.Delta != 5 || cmd.Keys[0] != "counter" {
		t.Fatalf("incr: %+v %v", cmd, err)
	}
	cmd, err = parse(t, "decr counter 3 noreply\r\n")
	if err != nil || cmd.Verb != VerbDecr || !cmd.NoReply {
		t.Fatalf("decr: %+v %v", cmd, err)
	}
	if _, err := parse(t, "incr counter\r\n"); err == nil {
		t.Fatal("incr without delta accepted")
	}
	if _, err := parse(t, "incr counter -5\r\n"); err == nil {
		t.Fatal("negative delta accepted")
	}
}

func TestParseTouch(t *testing.T) {
	cmd, err := parse(t, "touch k 300\r\n")
	if err != nil || cmd.Verb != VerbTouch || cmd.Exptime != 300 {
		t.Fatalf("touch: %+v %v", cmd, err)
	}
	if _, err := parse(t, "touch k\r\n"); err == nil {
		t.Fatal("touch without exptime accepted")
	}
	if _, err := parse(t, "touch k soon\r\n"); err == nil {
		t.Fatal("bad exptime accepted")
	}
}

// TestParserRobustCorpus throws random byte soup at the parser: it must
// never panic and must either parse or return a ClientError/IO error.
func TestParserRobustCorpus(t *testing.T) {
	corpus := []string{
		"\x00\x01\x02\r\n",
		"set\r\n",
		"set k\r\n",
		"get \r\n",
		strings.Repeat("a", 100000) + "\r\n",
		"set k 4294967296 0 1\r\nx\r\n", // flags overflow uint32
		"set k 0 99999999999999999999 1\r\nx\r\n",
		"set k 0 0 1048577\r\n",           // beyond MaxDataLen
		"incr k 18446744073709551616\r\n", // overflow uint64
		"cas k 0 0 1 18446744073709551616\r\nx\r\n",
		"get k1 k2 k3 k4 k5 k6 k7 k8 k9 k10\r\n",
		"\r\n\r\n\r\n",
		"touch\r\n",
		"delete  \r\n",
		"GET K\r\n", // upper case verb is accepted, keys case-sensitive
	}
	for _, in := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", in, r)
				}
			}()
			r := bufio.NewReader(strings.NewReader(in))
			for {
				_, err := ReadCommand(r)
				if err != nil {
					return
				}
			}
		}()
	}
}

func TestAppendValueCAS(t *testing.T) {
	out := AppendValueHeader(nil, "k", 7, 2, true, 42)
	if string(out) != "VALUE k 7 2 42\r\n" {
		t.Fatalf("got %q", out)
	}
	if out := AppendValueHeader(nil, []byte("k"), 7, 2, false, 42); string(out) != "VALUE k 7 2\r\n" {
		t.Fatalf("get header %q", out)
	}
}

func TestAppendValue(t *testing.T) {
	out := AppendValue(nil, "k", 7, []byte("abc"))
	out = AppendEnd(out)
	want := "VALUE k 7 3\r\nabc\r\nEND\r\n"
	if string(out) != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestAppendStatAndLine(t *testing.T) {
	out := AppendStat(nil, "hits", 42)
	if string(out) != "STAT hits 42\r\n" {
		t.Fatalf("got %q", out)
	}
	if string(AppendLine(nil, "STORED")) != "STORED\r\n" {
		t.Fatal("AppendLine broken")
	}
}

func TestReadResponseValues(t *testing.T) {
	in := "VALUE a 7 5\r\nhello\r\nVALUE b 0 2 42\r\nhi\r\nEND\r\n"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusEnd || len(resp.Values) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	a, b := resp.Values[0], resp.Values[1]
	if a.Key != "a" || a.Flags != 7 || string(a.Data) != "hello" || a.CAS != 0 {
		t.Fatalf("value a = %+v", a)
	}
	if b.Key != "b" || string(b.Data) != "hi" || b.CAS != 42 {
		t.Fatalf("value b = %+v", b)
	}
}

func TestReadResponseStatuses(t *testing.T) {
	cases := map[string]Status{
		"STORED\r\n":             StatusStored,
		"NOT_STORED\r\n":         StatusNotStored,
		"EXISTS\r\n":             StatusExists,
		"NOT_FOUND\r\n":          StatusNotFound,
		"DELETED\r\n":            StatusDeleted,
		"TOUCHED\r\n":            StatusTouched,
		"OK\r\n":                 StatusOK,
		"ERROR\r\n":              StatusError,
		"END\r\n":                StatusEnd,
		"17\r\n":                 StatusNumber,
		"SERVER_ERROR oops\r\n":  StatusServerError,
		"VERSION pamakv/1.0\r\n": StatusVersion,
	}
	for in, want := range cases {
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(in)))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if resp.Status != want {
			t.Fatalf("%q -> status %v, want %v", in, resp.Status, want)
		}
	}
	resp, _ := ReadResponse(bufio.NewReader(strings.NewReader("17\r\n")))
	if resp.Number != 17 {
		t.Fatalf("number = %d", resp.Number)
	}
}

func TestReadResponseStats(t *testing.T) {
	in := "STAT cmd_get 3\r\nSTAT policy pama\r\nEND\r\n"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Stats) != 2 || resp.Stats[0] != [2]string{"cmd_get", "3"} ||
		resp.Stats[1] != [2]string{"policy", "pama"} {
		t.Fatalf("stats = %v", resp.Stats)
	}
}

func TestReadResponseMalformed(t *testing.T) {
	for _, in := range []string{
		"VALUE k 0 -1\r\n",
		"VALUE k 0 9999999999\r\n",
		"VALUE k 0 5\r\nhel",
		"VALUE\r\n",
		"STAT only\r\n",
		"gibberish here\r\n",
		"99 trailing\r\n",
	} {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(in))); err == nil {
			t.Fatalf("%q: accepted", in)
		}
	}
}

func TestLineTooLong(t *testing.T) {
	long := "get " + strings.Repeat("k ", MaxLineLen) + "\r\n"
	_, err := ReadCommand(bufio.NewReader(strings.NewReader(long)))
	if !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	}
	// A line at the limit is still parsed.
	okLine := "get " + strings.Repeat("k", 250) + "\r\n"
	if _, err := ReadCommand(bufio.NewReader(strings.NewReader(okLine))); err != nil {
		t.Fatalf("in-bounds line rejected: %v", err)
	}
}

// TestCheckKeyTenantSeparators pins the tenant-qualified key grammar: at
// most one '/', never first. Both parsers share checkKey, so the table also
// runs every key through a full `get` parse on each and cross-checks the
// verdicts.
func TestCheckKeyTenantSeparators(t *testing.T) {
	cases := []struct {
		key string
		ok  bool
	}{
		{"plain", true},
		{"t/k", true},
		{"tenant/deep:key:0", true},
		{"t/", true},        // empty rest: unambiguous tenant, legal
		{"a/b:c.d|e", true}, // separator-free rest may use any key bytes
		{"/k", false},       // empty tenant prefix
		{"/", false},
		{"a/b/c", false}, // second separator: tenant/rest split ambiguous
		{"a//b", false},
		{"t/k/", false},
		{"//", false},
	}
	for _, tc := range cases {
		err := CheckKey(tc.key)
		if (err == nil) != tc.ok {
			t.Errorf("CheckKey(%q) = %v, want ok=%v", tc.key, err, tc.ok)
		}
		var ce *ClientError
		if err != nil && !errors.As(err, &ce) {
			t.Errorf("CheckKey(%q) = %T, want *ClientError", tc.key, err)
		}

		// Reference parser.
		line := "get " + tc.key + "\r\n"
		_, refErr := ReadCommand(bufio.NewReader(strings.NewReader(line)))
		if (refErr == nil) != tc.ok {
			t.Errorf("ReadCommand(get %q) = %v, want ok=%v", tc.key, refErr, tc.ok)
		}
		// In-place parser.
		p := NewParser(bufio.NewReader(strings.NewReader(line)))
		_, ipErr := p.ReadCommand()
		if (ipErr == nil) != tc.ok {
			t.Errorf("Parser.ReadCommand(get %q) = %v, want ok=%v", tc.key, ipErr, tc.ok)
		}
	}
}
