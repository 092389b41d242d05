package main

// -compare: two result files (written with -out) side by side, one row per
// workload and end-to-end metric.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// verdict says how b stands against a for one metric.
//
//	ok          b's median is not worse than a's by more than the bound
//	worse       it is
//	unresolved  the runs inside a or b spread wider than the bound, so the
//	            comparison cannot tell a regression from noise
func verdict(d metricDef, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	r := ratio(mb, ma)
	spread := max(relSpread(a), relSpread(b))
	worse := r > 1+d.Bound
	if d.Better == "higher" {
		worse = r < 1-d.Bound
	}
	switch {
	case spread > d.Bound:
		return "unresolved", r, spread
	case worse:
		return "worse", r, spread
	}
	return "ok", r, spread
}

// relSpread is the distance between the first and third quartile as a share
// of the median (with fewer than four values, the whole range; with one, 0).
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartile(s, 1), quartile(s, 3)
	}
	return ratio(hi-lo, median(s))
}

// quartile is the k-th quartile of sorted values by the method Python's
// statistics.quantiles(n=4) uses (exclusive).
func quartile(sorted []float64, k int) float64 {
	n := len(sorted)
	pos := float64(k) * float64(n+1) / 4
	i := int(pos)
	if i < 1 {
		return sorted[0]
	}
	if i >= n {
		return sorted[n-1]
	}
	return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
}

func readResults(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string]map[string][]float64{}
	for _, r := range rs {
		if r.Trace != 0 {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run of %s was not correct (%d of %d operations failed)", path, r.Workload, r.Failed, r.Attempted)
		}
		if by[r.Workload] == nil {
			by[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			by[r.Workload][name] = append(by[r.Workload][name], v.Value)
		}
	}
	return by, nil
}

// compareFiles prints the comparison of b against the base a and returns the
// exit code: 1 when any metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readResults(pathB); err == nil {
			return compareSets(w, pathA, pathB, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareSets(w io.Writer, pathA, pathB string, a, b map[string]map[string][]float64) int {
	fmt.Fprintf(w, "base a = %s, b = %s; ratio = b/a of medians; spread = interquartile range / median, the wider of a and b\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-22s %5s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "runs", "a", "b", "ratio", "spread", "bound", "verdict")
	code := 0
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := a[sp.name][d.Name], b[sp.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-22s absent from one file\n", sp.name, d.Name)
				continue
			}
			v, r, spread := verdict(d, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-22s %2d/%-2d %14.4f %14.4f %8.4f %7.4f %7.4f  %s (%s is better)\n",
				sp.name, d.Name, len(va), len(vb), median(va), median(vb), r, spread, d.Bound, v, d.Better)
		}
	}
	return code
}
