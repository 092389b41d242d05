package sim

import (
	"slices"
	"strings"
	"testing"

	"pamakv/internal/kv"
)

func TestFigureByIDKnown(t *testing.T) {
	for _, id := range AllFigureIDs() {
		f, err := FigureByID(id, 0.01)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(f.Specs) == 0 || f.Render == nil || f.Title == "" {
			t.Fatalf("figure %s incomplete: %+v", id, f)
		}
	}
	if _, err := FigureByID("99", 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureScaleFloors(t *testing.T) {
	f, err := FigureByID("5", 0.000001)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Specs {
		if s.Requests < 10_000 {
			t.Fatalf("scaled request count %d below floor", s.Requests)
		}
	}
	// Zero/negative scale falls back to 1.0.
	f0, _ := FigureByID("5", 0)
	f1, _ := FigureByID("5", 1)
	if f0.Specs[0].Requests != f1.Specs[0].Requests {
		t.Fatal("scale 0 should behave as 1.0")
	}
}

// TestFigure3EndToEnd renders Fig 3 and gates its shape at half the
// committed run's requests, past the point where PSA has drained the other
// classes: memcached's allocation freezes once the cache is full, PSA ends
// with class 0 holding more than 80 % of the slabs, and PAMA spreads them,
// no class ending with half (results/fig3.tsv ends at 94.5 % and 14.5 %).
func TestFigure3EndToEnd(t *testing.T) {
	f, err := FigureByID("3", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMatrix(f.Specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := f.Render(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, kind := range FigurePolicies {
		if !strings.Contains(out, "scheme="+kind) {
			t.Fatalf("figure 3 output missing %s:\n%s", kind, out[:200])
		}
	}
	if !strings.Contains(out, "class14") {
		t.Fatal("slab TSV missing class columns")
	}

	for _, r := range res {
		pts := r.SlabSeries.Points
		total := int(r.Spec.CacheBytes) / kv.DefaultGeometry().SlabSize
		last := pts[len(pts)-1].Slabs
		switch r.Spec.Name {
		case "memcached":
			full := -1
			for i, p := range pts {
				if sum(p.Slabs) == total {
					full = i
					break
				}
			}
			if full < 0 {
				t.Fatalf("memcached never filled its %d slabs: last row %v", total, last)
			}
			for _, p := range pts[full:] {
				if !slices.Equal(p.Slabs, pts[full].Slabs) {
					t.Errorf("memcached's allocation moved after the cache filled at %d gets: %v, then %v at %d",
						pts[full].GetsServed, pts[full].Slabs, p.Slabs, p.GetsServed)
					break
				}
			}
		case "psa":
			if 5*last[0] <= 4*total {
				t.Errorf("PSA's class 0 ends with %d of %d slabs, want more than 80%%", last[0], total)
			}
		case "pama":
			if top := slices.Max(last); 2*top >= total {
				t.Errorf("PAMA's largest class ends with %d of %d slabs, want less than half: %v", top, total, last)
			}
		}
	}
}

// TestFigure56Shape gates Fig 5/6's 128 MiB group at a quarter of the
// committed run's requests: PAMA has the lowest mean and tail (last quarter)
// service time, pre-PAMA the highest hit ratio, memcached the highest mean
// service time. Below this scale PAMA's lead over pre-PAMA shrinks to noise.
func TestFigure56Shape(t *testing.T) {
	f, err := FigureByID("5", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMatrix(f.Specs[:len(FigurePolicies)], 0) // memcached, psa, pre-pama, pama at 128 MiB
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]*Result{}
	for _, r := range res {
		by[strings.TrimSuffix(r.Spec.Name, "/128MiB")] = r
		t.Logf("%s: hit %.4f, mean service %.5f s, tail %.5f s", r.Spec.Name,
			r.Series.MeanHitRatio(), r.Series.MeanAvgService(), r.Series.TailMeanAvgService(0.25))
	}
	if len(by) != len(FigurePolicies) {
		t.Fatalf("runs %v, want the 128 MiB group of %v", by, FigurePolicies)
	}
	best := func(metric func(*Result) float64, higher bool) string {
		name := FigurePolicies[0]
		for _, kind := range FigurePolicies[1:] {
			if d := metric(by[kind]) - metric(by[name]); d != 0 && (d > 0) == higher {
				name = kind
			}
		}
		return name
	}
	mean := func(r *Result) float64 { return r.Series.MeanAvgService() }
	tail := func(r *Result) float64 { return r.Series.TailMeanAvgService(0.25) }
	hit := func(r *Result) float64 { return r.Series.MeanHitRatio() }
	for _, c := range []struct {
		what, got, want string
	}{
		{"lowest mean service time", best(mean, false), "pama"},
		{"lowest tail service time", best(tail, false), "pama"},
		{"highest hit ratio", best(hit, true), "pre-pama"},
		{"highest mean service time", best(mean, true), "memcached"},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s, want %s", c.what, c.got, c.want)
		}
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func TestFigure4EndToEnd(t *testing.T) {
	f, err := FigureByID("4", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMatrix(f.Specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := f.Render(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pama-class0") || !strings.Contains(sb.String(), "sub4") {
		t.Fatalf("figure 4 output malformed:\n%s", sb.String()[:200])
	}
}

func TestFigure9HasBurstArm(t *testing.T) {
	f, err := FigureByID("9", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	withBurst := 0
	for _, s := range f.Specs {
		if s.Burst != nil {
			withBurst++
			if s.Burst.FracOfCache != 0.10 || len(s.Burst.Classes) != 3 {
				t.Fatalf("burst shape wrong: %+v", s.Burst)
			}
		}
	}
	if withBurst != 2 {
		t.Fatalf("want 2 burst arms (psa, pama), got %d", withBurst)
	}
}

func TestFigure10SweepsM(t *testing.T) {
	f, err := FigureByID("10", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Specs) != 8 {
		t.Fatalf("want 4 m-values x 2 workloads = 8 specs, got %d", len(f.Specs))
	}
	seen := map[int]bool{}
	for _, s := range f.Specs {
		if !s.Policy.PAMA.PenaltyAware {
			t.Fatal("fig 10 runs must stay penalty-aware")
		}
		seen[s.Policy.PAMA.M] = true
	}
	for _, m := range []int{0, 2, 4, 8} {
		if !seen[m] {
			t.Fatalf("m=%d missing from sweep", m)
		}
	}
}

func TestWriteSummarySkipsNil(t *testing.T) {
	f, _ := FigureByID("9", 0.002)
	res, err := RunMatrix(f.Specs[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	res = append(res, nil)
	var sb strings.Builder
	if err := WriteSummary(&sb, res); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\n"); n != 2 { // header + 1 row
		t.Fatalf("summary rows = %d:\n%s", n, sb.String())
	}
}
