package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestWindowAccumulates(t *testing.T) {
	var w Window
	w.Add(true, 0.001)
	w.Add(false, 0.5)
	w.Add(true, 0.001)
	if w.Gets != 3 || w.Hits != 2 {
		t.Fatalf("gets=%d hits=%d", w.Gets, w.Hits)
	}
	if got := w.HitRatio(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("HitRatio = %v", got)
	}
	if got := w.AvgService(); math.Abs(got-0.502/3) > 1e-12 {
		t.Fatalf("AvgService = %v", got)
	}
	w.Reset()
	if w.Gets != 0 || !math.IsNaN(w.HitRatio()) || !math.IsNaN(w.AvgService()) {
		t.Fatal("Reset incomplete: empty window must report NaN, not 0")
	}
}

func TestEmptyWindowIsNaNNotZero(t *testing.T) {
	// "No traffic" must be distinguishable from "0% hits": an empty window
	// reports NaN, a window of pure misses reports exactly 0.
	var empty, allMiss Window
	allMiss.Add(false, 0.1)
	if !math.IsNaN(empty.HitRatio()) || !math.IsNaN(empty.AvgService()) {
		t.Fatalf("empty window: hit=%v svc=%v, want NaN", empty.HitRatio(), empty.AvgService())
	}
	if allMiss.HitRatio() != 0 {
		t.Fatalf("all-miss window HitRatio = %v, want 0", allMiss.HitRatio())
	}
	// Series aggregates skip NaN windows instead of poisoning the mean.
	s := &Series{}
	s.Append(Point{GetsServed: 10, HitRatio: 0.5, AvgService: 0.2})
	s.Append(Point{GetsServed: 10, HitRatio: empty.HitRatio(), AvgService: empty.AvgService()})
	s.Append(Point{GetsServed: 20, HitRatio: 0.7, AvgService: 0.4})
	if got := s.MeanHitRatio(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("MeanHitRatio = %v, want 0.6 (NaN window skipped)", got)
	}
	if got := s.MeanAvgService(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("MeanAvgService = %v, want 0.3", got)
	}
	if got := s.TailMeanAvgService(0.5); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("TailMeanAvgService = %v, want 0.4 (tail is {NaN, 0.4})", got)
	}
	// The TSV emitter renders the empty window as "-", never "NaN".
	var sb strings.Builder
	if err := WriteTSV(&sb, []*Series{s}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Fatalf("WriteTSV leaked NaN:\n%s", sb.String())
	}
	rows := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(rows) != 4 || !strings.Contains(rows[2], "-\t-") {
		t.Fatalf("empty window row not dashed:\n%s", sb.String())
	}
}

func TestSeriesAggregates(t *testing.T) {
	s := &Series{Name: "x"}
	if s.Final().GetsServed != 0 {
		t.Fatal("empty Final should be zero")
	}
	s.Append(Point{GetsServed: 100, HitRatio: 0.5, AvgService: 0.2})
	s.Append(Point{GetsServed: 200, HitRatio: 0.7, AvgService: 0.1})
	s.Append(Point{GetsServed: 300, HitRatio: 0.9, AvgService: 0.3})
	if got := s.MeanHitRatio(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("MeanHitRatio = %v", got)
	}
	if got := s.MeanAvgService(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("MeanAvgService = %v", got)
	}
	if got := s.Final().GetsServed; got != 300 {
		t.Fatalf("Final gets = %d", got)
	}
	if got := s.TailMeanAvgService(0.3); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("TailMeanAvgService = %v", got)
	}
	if got := s.TailMeanAvgService(1.0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("TailMeanAvgService(1.0) = %v", got)
	}
}

func TestEmptySeriesAggregates(t *testing.T) {
	s := &Series{}
	if s.MeanHitRatio() != 0 || s.MeanAvgService() != 0 || s.TailMeanAvgService(0.5) != 0 {
		t.Fatal("empty series aggregates should be 0")
	}
}

func TestWriteTSV(t *testing.T) {
	a := &Series{Name: "pama"}
	a.Append(Point{GetsServed: 10, HitRatio: 0.5, AvgService: 0.01})
	a.Append(Point{GetsServed: 20, HitRatio: 0.6, AvgService: 0.02})
	b := &Series{Name: "psa"}
	b.Append(Point{GetsServed: 10, HitRatio: 0.4, AvgService: 0.03})
	var sb strings.Builder
	if err := WriteTSV(&sb, []*Series{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "gets\tpama:hit\tpama:svc\tpsa:hit\tpsa:svc") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "-") {
		t.Fatal("short series should pad with '-'")
	}
}

func TestWriteSlabTSV(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(Point{GetsServed: 10, Slabs: []int{3, 1}})
	var sb strings.Builder
	if err := WriteSlabTSV(&sb, s, 3); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "class2") || !strings.Contains(out, "10\t3\t1\t0") {
		t.Fatalf("bad slab TSV:\n%s", out)
	}
}

func TestSortedNames(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedNames(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("SortedNames = %v", got)
	}
}
