package proto

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// TestAppendCommandRoundTrip checks that AppendCommand is the inverse of
// ReadCommand over the full command set.
func TestAppendCommandRoundTrip(t *testing.T) {
	cmds := []*Command{
		{Name: "get", Keys: []string{"a"}},
		{Name: "get", Keys: []string{"a", "b", "longer-key"}},
		{Name: "gets", Keys: []string{"x"}},
		{Name: "set", Keys: []string{"k"}, Flags: 7, Exptime: 60, Data: []byte("hello")},
		{Name: "set", Keys: []string{"k"}, Flags: 0, Exptime: 0, Data: []byte{}, NoReply: true},
		{Name: "add", Keys: []string{"k"}, Flags: 1, Exptime: 2, Data: []byte("v")},
		{Name: "replace", Keys: []string{"k"}, Data: []byte("vv")},
		{Name: "append", Keys: []string{"k"}, Data: []byte("tail")},
		{Name: "prepend", Keys: []string{"k"}, Data: []byte("head"), NoReply: true},
		{Name: "cas", Keys: []string{"k"}, Flags: 3, Exptime: 9, CasID: 12345, Data: []byte("w")},
		{Name: "delete", Keys: []string{"k"}},
		{Name: "delete", Keys: []string{"k"}, NoReply: true},
		{Name: "touch", Keys: []string{"k"}, Exptime: 30},
		{Name: "incr", Keys: []string{"n"}, Delta: 5},
		{Name: "decr", Keys: []string{"n"}, Delta: 1, NoReply: true},
		{Name: "stats"},
		{Name: "flush_all"},
		{Name: "version"},
		{Name: "quit"},
	}
	for _, want := range cmds {
		wire := AppendCommand(nil, want)
		got, err := ReadCommand(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("%s: re-parse of %q: %v", want.Name, wire, err)
		}
		// ReadCommand records the declared block length; mirror it before
		// comparing.
		want.Bytes = len(want.Data)
		if got.Data == nil {
			got.Data = want.Data // []byte{} vs nil for empty blocks
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip = %+v, want %+v (wire %q)", want.Name, got, want, wire)
		}
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
	var clones []*Resp
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
		clones = append(clones, r.Clone())
	}
	for i, c := range clones {
		if got := AppendResp(nil, c, false); string(got) != wires[i] {
			t.Errorf("clone %d rendered %q after the reader moved on, want %q", i, got, wires[i])
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
