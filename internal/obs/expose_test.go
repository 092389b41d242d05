package obs

import (
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	Depth int `prom:"t_depth" help:"Depth." merge:"max"`
}

type sample struct {
	inner
	Name     string            `json:"name"`
	Gets     uint64            `prom:"t_gets_total" help:"Gets." stat:"cmd_get"`
	Ratio    float64           `prom:"t_ratio" help:"Ratio." stat:"-"`
	Open     bool              `prom:"t_open" help:"Open."`
	PerClass []int             `prom:"t_slabs" help:"Slabs." label:"class"`
	Cells    [][]uint64        `prom:"t_cells_total,sparse" help:"Cells." label:"src,dst"`
	ByReason map[string]uint64 `prom:"t_sheds_total" help:"Sheds." label:"reason"`
	Lat      HistSnapshot      `prom:"t_seconds" help:"Latency."`
	Layout   int               `merge:"keep"`
	Untagged uint64
	Nested   *inner
}

func testSample() sample {
	h := NewHist(1, 1)
	h.Observe(2)
	return sample{
		inner: inner{Depth: 3}, Name: "a", Gets: 7, Ratio: 0.5, Open: true,
		PerClass: []int{1, 0}, Cells: [][]uint64{{0, 2}, {0, 0}},
		ByReason: map[string]uint64{"queue_full": 4, "policy": 1},
		Lat:      h.Snapshot(), Layout: 9, Untagged: 5, Nested: &inner{Depth: 2},
	}
}

func TestStructRendersEveryTaggedKind(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Struct(testSample())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# HELP t_depth Depth.\n# TYPE t_depth gauge\nt_depth 3\n", // embedded, first
		"# TYPE t_gets_total counter\nt_gets_total 7\n",
		"# TYPE t_ratio gauge\nt_ratio 0.5\n",
		"t_open 1\n",
		"# TYPE t_slabs gauge\nt_slabs{class=\"0\"} 1\nt_slabs{class=\"1\"} 0\n",                   // dense: the zero stays
		"# TYPE t_cells_total counter\nt_cells_total{src=\"0\",dst=\"1\"} 2\n# HELP t_sheds_total", // sparse: one cell
		"t_sheds_total{reason=\"policy\"} 1\nt_sheds_total{reason=\"queue_full\"} 4\n",             // keys sorted
		"# TYPE t_seconds histogram\nt_seconds_bucket{le=\"1\"} 0\n",
		"t_seconds_count 1\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "Untagged") || strings.Contains(got, "Layout") || strings.Count(got, "t_depth") != 3 {
		t.Errorf("untagged or nested fields rendered:\n%s", got)
	}
}

func TestRowsKeepsAFamilyTogether(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Rows("tenant", []string{"gold", "bronze"}, []sample{testSample(), {Gets: 1}})
	got := b.String()
	for _, want := range []string{
		"# TYPE t_gets_total counter\nt_gets_total{tenant=\"gold\"} 7\nt_gets_total{tenant=\"bronze\"} 1\n",
		"t_slabs{tenant=\"gold\",class=\"0\"} 1\n",
		"t_seconds_count{tenant=\"gold\"} 1\nt_seconds_sum{tenant=\"bronze\"} 0\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	b.Reset()
	p.Rows("peer", nil, []sample{}) // no rows: the families are still declared
	if got := b.String(); !strings.Contains(got, "# TYPE t_gets_total counter\n# HELP") || strings.Contains(got, "peer=") {
		t.Errorf("empty rows rendered:\n%s", got)
	}
}

func TestAppendStatsNames(t *testing.T) {
	got := string(AppendStats(nil, testSample()))
	// Numbers only; the stat tag, or the series name less prefix and suffix
	// (the test's series carry no pamakv_ prefix); "-" leaves a field out.
	if want := "STAT t_depth 3\r\nSTAT cmd_get 7\r\n"; got != want {
		t.Errorf("AppendStats = %q, want %q", got, want)
	}
}

func TestSumFoldsFieldByField(t *testing.T) {
	a, b := testSample(), testSample()
	b.Depth, b.Nested.Depth, b.Open, b.Layout, b.Name = 5, 1, false, 100, "b"
	b.PerClass = []int{10, 20, 30} // longer: only the overlap is added
	Sum(&a, b)
	want := testSample()
	want.Depth, want.Nested.Depth = 5, 2 // max, through the embedded struct and the pointer
	want.Gets, want.Ratio, want.Untagged = 14, 1, 10
	want.PerClass, want.Cells = []int{11, 20}, [][]uint64{{0, 4}, {0, 0}}
	if err := want.Lat.Merge(b.Lat); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("Sum gave\n%+v, want\n%+v", a, want)
	}
	var none *inner
	c := sample{Nested: none}
	Sum(&c, testSample())
	if c.Nested != nil || c.Gets != 7 {
		t.Errorf("Sum into a nil pointer: %+v", c)
	}
}
