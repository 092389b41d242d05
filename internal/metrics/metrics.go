// Package metrics collects the windowed statistics the paper reports: hit
// ratio and average GET service time per window of served GETs, plus slab
// allocation snapshots and totals. Latency histograms live in package obs.
//
// A Window accumulates; a Series records one row per closed window. The
// figure emitters in internal/sim and cmd/pama-bench print Series as TSV.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Window accumulates GET statistics until the window closes.
type Window struct {
	Gets        uint64
	Hits        uint64
	ServiceTime float64 // seconds, summed over GETs
}

// Add records one GET with the given service time.
func (w *Window) Add(hit bool, service float64) {
	w.Gets++
	if hit {
		w.Hits++
	}
	w.ServiceTime += service
}

// HitRatio returns hits/gets, or NaN for an empty window: a window that saw
// no traffic is not a window with 0% hits, and every emitter renders the
// distinction (TSV as "-", JSON as null/omitted).
func (w *Window) HitRatio() float64 {
	if w.Gets == 0 {
		return math.NaN()
	}
	return float64(w.Hits) / float64(w.Gets)
}

// AvgService returns mean service time per GET in seconds, or NaN when the
// window is empty (see HitRatio).
func (w *Window) AvgService() float64 {
	if w.Gets == 0 {
		return math.NaN()
	}
	return w.ServiceTime / float64(w.Gets)
}

// Reset zeroes the window.
func (w *Window) Reset() { *w = Window{} }

// Point is one closed window in a series.
type Point struct {
	// GetsServed is the cumulative GET count at window close (the
	// paper's x-axis, "# of served GET requests").
	GetsServed uint64
	HitRatio   float64
	AvgService float64
	// Slabs is the per-class slab allocation snapshot at window close
	// (nil when not sampled).
	Slabs []int
	// Extra holds policy-specific columns (e.g. per-subclass slabs).
	Extra []float64
}

// Series is an ordered collection of windows for one experiment
// configuration.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a closed window snapshot.
func (s *Series) Append(p Point) { s.Points = append(s.Points, p) }

// Final returns the last point, or a zero Point when empty.
func (s *Series) Final() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// MeanHitRatio averages hit ratio over all non-empty points (unweighted,
// matching the paper's per-window presentation). Empty (NaN) windows carry
// no information and are skipped; all-empty series report 0.
func (s *Series) MeanHitRatio() float64 {
	t, n := 0.0, 0
	for _, p := range s.Points {
		if math.IsNaN(p.HitRatio) {
			continue
		}
		t += p.HitRatio
		n++
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// MeanAvgService averages the per-window mean service time over non-empty
// points (see MeanHitRatio for the NaN-window rule).
func (s *Series) MeanAvgService() float64 {
	t, n := 0.0, 0
	for _, p := range s.Points {
		if math.IsNaN(p.AvgService) {
			continue
		}
		t += p.AvgService
		n++
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// TailMeanAvgService averages AvgService over the last frac of points —
// "when the service time curves stabilize" in the paper's wording. Empty
// (NaN) windows inside the tail are skipped.
func (s *Series) TailMeanAvgService(frac float64) float64 {
	n := len(s.Points)
	if n == 0 {
		return 0
	}
	start := n - int(math.Ceil(frac*float64(n)))
	if start < 0 {
		start = 0
	}
	t, k := 0.0, 0
	for _, p := range s.Points[start:] {
		if math.IsNaN(p.AvgService) {
			continue
		}
		t += p.AvgService
		k++
	}
	if k == 0 {
		return 0
	}
	return t / float64(k)
}

// WriteTSV renders several series side by side: one row per window, columns
// gets<TAB>name:hit<TAB>name:svc per series. Series may have differing
// lengths; missing cells print as "-".
func WriteTSV(w io.Writer, series []*Series) error {
	header := []string{"gets"}
	maxLen := 0
	for _, s := range series {
		header = append(header, s.Name+":hit", s.Name+":svc")
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(header))
		gets := "-"
		for _, s := range series {
			if i < len(s.Points) {
				gets = fmt.Sprintf("%d", s.Points[i].GetsServed)
				break
			}
		}
		row = append(row, gets)
		for _, s := range series {
			if i < len(s.Points) {
				p := s.Points[i]
				row = append(row, cell(p.HitRatio, "%.4f"), cell(p.AvgService, "%.6f"))
			} else {
				row = append(row, "-", "-")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// cell formats one TSV value, rendering an empty window's NaN as "-".
func cell(v float64, format string) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// WriteSlabTSV renders the per-class slab allocation series of one
// experiment: one row per window, one column per class.
func WriteSlabTSV(w io.Writer, s *Series, numClasses int) error {
	header := []string{"gets"}
	for c := 0; c < numClasses; c++ {
		header = append(header, fmt.Sprintf("class%d", c))
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	for _, p := range s.Points {
		row := []string{fmt.Sprintf("%d", p.GetsServed)}
		for c := 0; c < numClasses; c++ {
			v := 0
			if c < len(p.Slabs) {
				v = p.Slabs[c]
			}
			row = append(row, fmt.Sprintf("%d", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// SortedNames returns map keys in sorted order; a small helper for stable
// report output.
func SortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
