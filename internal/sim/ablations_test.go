package sim

import (
	"fmt"
	"math"
	"testing"
)

// TestAblationsShape is the design-choice gate: each of PAMA's choices that
// the ablations figure varies holds its claim on mean service time, at the
// committed scale, so results/fig_ablations.tsv is the run it checks. Hit
// ratios are not asserted: PAMA trades hits for penalty, and the rows differ
// by up to 0.08 in hit ratio at near-equal service time.
func TestAblationsShape(t *testing.T) {
	f, err := FigureByID("ablations", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMatrix(f.Specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	mean := map[string]float64{}
	for _, r := range res {
		mean[r.Spec.Name] = r.Series.MeanAvgService()
		t.Logf("%s: hit %.4f mean %.3f ms", r.Spec.Name, r.Series.MeanHitRatio(), 1e3*mean[r.Spec.Name])
	}
	pama := mean["pama"]
	rel := func(arm string) float64 { return mean[arm]/pama - 1 }
	// 1. The paper's Bloom tracking serves GETs within 1 % of the exact
	// tracker (+0.3 %). The band is this stream's: seeds 2 and 3 read
	// −2.5 % and −3.3 %, Bloom faster.
	if d := rel("bloom"); math.Abs(d) > 0.01 {
		t.Errorf("bloom tracking is %+.1f %% from exact, want within 1 %%", 100*d)
	}
	// 2. One subclass, no penalty isolation, is at least 10 % slower than
	// the paper's five (+22.7 %; +16.4 % and +11.0 % on seeds 2 and 3).
	if d := rel("sub1"); d < 0.10 {
		t.Errorf("one subclass is %+.1f %% from five, want at least +10 %%", 100*d)
	}
	// 3. Five subclasses are no slower than three (three are +3.2 %; +2.5 %
	// and −0.3 % on seeds 2 and 3).
	if d := rel("sub3"); d < 0 {
		t.Errorf("three subclasses are %+.1f %% from five, want no faster", 100*d)
	}
	// 4. The value window at a fifth and at four times its default moves
	// service time by at most 2 % (−0.6 % and +1.2 %; within 1.4 % on seeds
	// 2 and 3).
	for _, arm := range []string{"window/5", "window*4"} {
		if d := rel(arm); math.Abs(d) > 0.02 {
			t.Errorf("%s is %+.1f %% from the default window, want within 2 %%", arm, 100*d)
		}
	}
	// 5. The pama row is the baselines figure's etc/pama run: both tables
	// replay one stream, so the committed baselines table prints its mean.
	got := "missing"
	for _, r := range committedBaselines(t) {
		if r.Stream == "etc" && r.Kind == "pama" {
			got = fmt.Sprintf("%.6f", r.Mean)
		}
	}
	if want := fmt.Sprintf("%.6f", pama); got != want {
		t.Errorf("results/fig_baselines.tsv etc/pama mean is %s, the ablations pama row %s", got, want)
	}
}
