package sim

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestBaselinesShape is the comparator gate: every roster kind earns its row
// with a claim the baselines figure measures. CI runs it at this scale;
// results/fig_baselines.tsv records the scale-1 run, and
// TestBaselinesCommittedFigure holds it to the same claims.
func TestBaselinesShape(t *testing.T) {
	f, err := FigureByID("baselines", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMatrix(f.Specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := baselineRows(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s/%s: hit %.4f mean %.2f ms", r.Stream, r.Kind, r.Hit, 1e3*r.Mean)
	}
	checkBaselines(t, rows)
}

// TestBaselinesCommittedFigure reads the committed scale-1 table back and
// asserts the same claims of it.
func TestBaselinesCommittedFigure(t *testing.T) {
	checkBaselines(t, committedBaselines(t))
}

// committedBaselines parses results/fig_baselines.tsv into rows carrying
// hit ratio and mean service time.
func committedBaselines(t *testing.T) []baselineRow {
	t.Helper()
	data, err := os.ReadFile("../../results/fig_baselines.tsv")
	if err != nil {
		t.Fatal(err)
	}
	var rows []baselineRow
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 7 || f[0] == "stream" {
			continue
		}
		r := baselineRow{Stream: f[0], Kind: f[1]}
		for i, dst := range []*float64{&r.Hit, &r.Mean} {
			if *dst, err = strconv.ParseFloat(f[2+i], 64); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// checkBaselines asserts the figure's six claims on mean service time.
func checkBaselines(t *testing.T, rows []baselineRow) {
	t.Helper()
	mean := map[string]map[string]float64{"app": {}, "etc": {}}
	for _, r := range rows {
		if mean[r.Stream] == nil {
			t.Fatalf("row for unknown stream %q", r.Stream)
		}
		if _, dup := mean[r.Stream][r.Kind]; dup {
			t.Fatalf("two rows for %s/%s", r.Stream, r.Kind)
		}
		mean[r.Stream][r.Kind] = r.Mean
	}
	// 6. Every roster kind has a row on both streams, the clairvoyant
	// variants one on ETC, and no other kind has one.
	for stream, want := range map[string][]string{"app": Roster, "etc": append(slices.Clone(Roster), oracleKinds...)} {
		var got []string
		for kind := range mean[stream] {
			got = append(got, kind)
		}
		slices.Sort(got)
		want = slices.Clone(want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s rows are %v, want %v", stream, got, want)
		}
	}
	for stream, m := range mean {
		pama := m["pama"]
		// 1. PAMA has the strictly lowest mean service time among the
		// slab-level comparators.
		for _, kind := range SlabKinds() {
			if kind != "pama" && m[kind] <= pama {
				t.Errorf("%s: %s mean service %.2f ms is not above PAMA's %.2f ms", stream, kind, 1e3*m[kind], 1e3*pama)
			}
		}
		// 2. GDSF, at item granularity, is at or below PAMA: the gap is
		// the price of slabs.
		if m["gdsf"] > pama {
			t.Errorf("%s: GDSF mean service %.2f ms above PAMA's %.2f ms", stream, 1e3*m["gdsf"], 1e3*pama)
		}
		// 3. Weighting LAMA's curves by average miss time recovers less
		// than a quarter of the gap from hit-ratio LAMA to PAMA.
		if rec := (m["lama-hit"] - m["lama-time"]) / (m["lama-hit"] - pama); rec >= 0.25 {
			t.Errorf("%s: lama-time recovers %.0f %% of the lama-hit → PAMA gap, want < 25 %%", stream, 100*rec)
		}
	}
	etc := mean["etc"]
	// 4. PAMA closes at least half of the gap from memcached to the
	// cost-aware clairvoyant replay.
	if closed := (etc["memcached"] - etc["pama"]) / (etc["memcached"] - etc["cost-belady"]); closed < 0.5 {
		t.Errorf("etc: PAMA closes %.0f %% of the memcached → cost-belady gap, want ≥ 50 %%", 100*closed)
	}
	// 5. Plain Belady, clairvoyant but penalty-blind, serves GETs slower
	// than PAMA.
	if etc["belady"] <= etc["pama"] {
		t.Errorf("etc: Belady mean service %.2f ms is not above PAMA's %.2f ms", 1e3*etc["belady"], 1e3*etc["pama"])
	}
}
