package sim

import (
	"strings"
	"testing"
)

// TestHolesAblationGate is the memory-holes gate: on the mixed-size trace
// the slot table solved from the head of the trace must waste at least 20%
// fewer bytes per item to internal fragmentation than the power-of-two
// baseline under both policies, without giving up hit ratio under
// memcached's or service time under PAMA's. CI runs this at this reduced
// scale; results/fig_holes.tsv records the full-scale run.
func TestHolesAblationGate(t *testing.T) {
	f, err := FigureByID("holes", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMatrix(f.Specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Holes are compared per resident item: under memory pressure the two
	// geometries hold different item counts, and per-item waste is what
	// the boundary solver minimizes.
	perItem := func(r *Result) float64 { return float64(r.HolesBytes) / float64(r.Items) }
	for i, want := range []string{"po2", "learned", "pama", "pama-learned"} {
		if res[i] == nil || res[i].Spec.Name != want {
			t.Fatalf("run %d is not %q: %+v", i, want, res[i])
		}
		r := res[i]
		t.Logf("%s: holes=%d items=%d per-item=%.1f hit=%.4f service=%.6f slots=%v", want, r.HolesBytes, r.Items,
			perItem(r), r.Series.MeanHitRatio(), r.Series.MeanAvgService(), r.SlotSizes)
	}
	po2, learned, pama, pamaLearned := res[0], res[1], res[2], res[3]
	if learned.Spec.Geometry.Equal(po2.Spec.withDefaults().Geometry) {
		t.Fatal("the solved table is the power-of-two table; ablation exercised nothing")
	}
	for _, pair := range [][2]*Result{{po2, learned}, {pama, pamaLearned}} {
		base, solved := pair[0], pair[1]
		if perItem(solved) > 0.80*perItem(base) {
			t.Fatalf("%s wastes %.1f bytes/item vs %s %.1f — less than the required 20%% reduction",
				solved.Spec.Name, perItem(solved), base.Spec.Name, perItem(base))
		}
	}
	if learned.Series.MeanHitRatio() < po2.Series.MeanHitRatio()-0.01 {
		t.Fatalf("learned hit ratio %.4f fell more than a point below po2 %.4f",
			learned.Series.MeanHitRatio(), po2.Series.MeanHitRatio())
	}
	if got, base := pamaLearned.Series.MeanAvgService(), pama.Series.MeanAvgService(); got > 1.02*base {
		t.Fatalf("pama-learned mean service time %.6f s is more than 2%% above pama's %.6f s", got, base)
	}
	var sb strings.Builder
	if err := RenderHoles(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "holes_per_item") || !strings.Contains(sb.String(), "# final geometry: pama-learned") {
		t.Fatalf("RenderHoles output malformed:\n%s", sb.String())
	}
}
