package proto

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// TestAppendCommandRoundTrip checks that AppendCommand is the inverse of both
// parsers over every verb. The cases are built by ranging over the verbs, so
// a verb that the renderer, the reference parser or the in-place parser does
// not know fails here.
func TestAppendCommandRoundTrip(t *testing.T) {
	var cmds []*Command
	for v := Verb(0); v < numVerbs; v++ {
		switch {
		case v.Reads():
			cmds = append(cmds,
				&Command{Verb: v, Keys: []string{"a"}},
				&Command{Verb: v, Keys: []string{"a", "b", "longer-key"}})
		case v.Stores():
			cmds = append(cmds,
				&Command{Verb: v, Keys: []string{"k"}, Flags: 7, Exptime: 60, Data: []byte("hello")},
				&Command{Verb: v, Keys: []string{"k"}, Flags: 1, Exptime: -1, Data: []byte{}, NoReply: true})
		case v.Keyed():
			for _, noreply := range []bool{false, true} {
				cmds = append(cmds, &Command{Verb: v, Keys: []string{"k"}, NoReply: noreply})
			}
		default:
			cmds = append(cmds, &Command{Verb: v})
		}
	}
	for _, c := range cmds {
		switch c.Verb {
		case VerbCAS:
			c.CasID = 12345
		case VerbTouch:
			c.Exptime = 30
		case VerbIncr, VerbDecr:
			c.Delta = 5
		}
	}
	for _, want := range cmds {
		wire := AppendCommand(nil, want)
		if !bytes.HasPrefix(wire, []byte(want.Verb.String())) {
			t.Errorf("%v renders as %q", want.Verb, wire)
		}
		got, err := ReadCommand(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("%v: re-parse of %q: %v", want.Verb, wire, err)
		}
		// ReadCommand records the declared block length; mirror it before
		// comparing.
		want.Bytes = len(want.Data)
		if got.Data == nil {
			got.Data = want.Data // []byte{} vs nil for empty blocks
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: round trip = %+v, want %+v (wire %q)", want.Verb, got, want, wire)
		}
		p := NewParser(bufio.NewReader(bytes.NewReader(wire)))
		fast, err := p.ReadCommand()
		if err != nil {
			t.Fatalf("%v: in-place parse of %q: %v", want.Verb, wire, err)
		}
		if msg := commandDiff(want, fast); msg != "" {
			t.Errorf("%v: in-place round trip of %q: %s", want.Verb, wire, msg)
		}
		p.Close()
	}
}

// TestAppendRespRelaysVerbatim: a reply parsed by RespReader and rendered by
// AppendResp is the bytes the owner sent, for every reply shape a relay sees;
// Response agrees with the reference parser on the same bytes, and a Clone
// survives the reader moving on.
func TestAppendRespRelaysVerbatim(t *testing.T) {
	wires := []string{
		"END\r\n",
		"VALUE k 2 3\r\nabc\r\nEND\r\n",
		"VALUE a 0 1\r\n1\r\nVALUE b 9 2\r\n22\r\nEND\r\n",
		"STORED\r\n",
		"NOT_FOUND\r\n",
		"41\r\n",
		"SERVER_ERROR backend unavailable\r\n",
		"SERVER_ERROR " + ShedMsg + "\r\n",
		"VERSION pamakv/1.0\r\n",
		"STAT cmd_get 10\r\nSTAT policy pama\r\nEND\r\n",
	}
	var all string
	for _, w := range wires {
		all += w
	}
	rr := NewRespReader(bufio.NewReader(bytes.NewReader([]byte(all))))
	for _, wire := range wires {
		r, err := rr.Next()
		if err != nil {
			t.Fatalf("parse of %q: %v", wire, err)
		}
		if got := AppendResp(nil, r, false); string(got) != wire {
			t.Errorf("relay of %q = %q", wire, got)
		}
		want, err := ReadResponse(bufio.NewReader(bytes.NewReader([]byte(wire))))
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Response(); !reflect.DeepEqual(got, want) {
			t.Errorf("Response of %q = %+v, reference %+v", wire, got, want)
		}
	}
}

// TestAppendRespCAS checks the CAS token survives a gets relay and is
// stripped from a get relay.
func TestAppendRespCAS(t *testing.T) {
	const wire = "VALUE k 1 1 99\r\nv\r\nEND\r\n"
	r, err := NewRespReader(bufio.NewReader(bytes.NewReader([]byte(wire)))).Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendResp(nil, r, true); string(got) != wire {
		t.Fatalf("gets relay = %q, want %q", got, wire)
	}
	if got := AppendResp(nil, r, false); string(got) != "VALUE k 1 1\r\nv\r\nEND\r\n" {
		t.Fatalf("get relay = %q, want the block without its token", got)
	}
}
