package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
)

func randomRequests(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			Op:   kv.Op(rng.Intn(3)),
			Key:  rng.Uint64(),
			Size: rng.Uint32(),
			Time: rng.Uint64(),
		}
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		reqs := randomRequests(seed, 100)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil || w.Count() != 100 {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := Collect(r, -1)
		if err != nil || len(got) != len(reqs) {
			return false
		}
		for i := range got {
			if got[i] != reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(strings.NewReader("PA")); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestReaderRejectsTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Request{Op: kv.Get, Key: 1})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-5]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record gave err=%v, want non-EOF error", err)
	}
}

func TestReaderRejectsBadOp(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	rec := make([]byte, recordSize)
	rec[0] = 99
	buf.Write(rec)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	reqs := randomRequests(7, 50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &SliceStream{Reqs: reqs}); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewCSVReader(&buf), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d records, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}
}

func TestCSVReaderBadRows(t *testing.T) {
	cases := []string{
		"op,key,size,time_us\nfrob,1,2,3\n",
		"op,key,size,time_us\nget,notanum,2,3\n",
		"op,key,size,time_us\nget,1,notanum,3\n",
		"op,key,size,time_us\nget,1,2,notanum\n",
	}
	for i, c := range cases {
		r := NewCSVReader(strings.NewReader(c))
		if _, err := r.Next(); err == nil {
			t.Errorf("case %d: bad row accepted", i)
		}
	}
}

func TestCollectLimit(t *testing.T) {
	reqs := randomRequests(1, 10)
	got, err := Collect(&SliceStream{Reqs: reqs}, 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("Collect(3) = %d records, err=%v", len(got), err)
	}
}

func TestLimit(t *testing.T) {
	l := &Limit{S: &SliceStream{Reqs: randomRequests(1, 10)}, N: 4}
	got, err := Collect(l, -1)
	if err != nil || len(got) != 4 {
		t.Fatalf("Limit yielded %d, err=%v", len(got), err)
	}
}

func TestEstimatorBasic(t *testing.T) {
	e := NewPenaltyEstimator()
	if e.Estimate(5) != e.Default || e.Known(5) {
		t.Fatal("fresh key should use default")
	}
	e.ObserveGetMiss(5, 1_000_000)
	e.ObserveSet(5, 1_250_000) // 250ms gap
	if !e.Known(5) {
		t.Fatal("estimate not recorded")
	}
	if got := e.Estimate(5); got < 0.249 || got > 0.251 {
		t.Fatalf("Estimate = %v, want 0.25", got)
	}
}

func TestEstimatorDiscardsLongGaps(t *testing.T) {
	e := NewPenaltyEstimator()
	e.ObserveGetMiss(1, 0)
	e.ObserveSet(1, 10_000_000) // 10s > 5s cap
	if e.Known(1) {
		t.Fatal("gap above cap should be discarded")
	}
}

func TestEstimatorIgnoresUnmatchedSet(t *testing.T) {
	e := NewPenaltyEstimator()
	e.ObserveSet(1, 100)
	if e.Known(1) {
		t.Fatal("SET without pending miss should not create estimate")
	}
}

func TestEstimatorClockBackwards(t *testing.T) {
	e := NewPenaltyEstimator()
	e.ObserveGetMiss(1, 1000)
	e.ObserveSet(1, 500)
	if e.Known(1) {
		t.Fatal("backwards clock should be ignored")
	}
}

func TestEstimatorResolvesOnce(t *testing.T) {
	e := NewPenaltyEstimator()
	e.ObserveGetMiss(1, 0)
	e.ObserveSet(1, 1_000_000)
	e.ObserveSet(1, 9_000_000) // no pending miss anymore; must not overwrite
	if got := e.Estimate(1); got < 0.99 || got > 1.01 {
		t.Fatalf("Estimate = %v, want 1.0", got)
	}
}
