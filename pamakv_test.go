package pamakv

import (
	"bufio"
	"net"
	"strings"
	"testing"
)

// The facade tests exercise the library the way a downstream user would:
// only identifiers exported from package pamakv.

func TestFacadeCacheLifecycle(t *testing.T) {
	c, err := New(Config{CacheBytes: 8 << 20, StoreValues: true}, NewPAMA(DefaultPAMAConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", 5, 0.25, 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	val, flags, hit := c.Get("k", 0, 0, nil)
	if !hit || string(val) != "hello" || flags != 3 {
		t.Fatalf("get: %q %d %v", val, flags, hit)
	}
	if !c.Delete("k") {
		t.Fatal("delete failed")
	}
	if c.Stats().Sets != 1 {
		t.Fatal("stats not visible through facade")
	}
}

func TestFacadePolicyConstructors(t *testing.T) {
	pols := []Policy{
		NewPAMA(DefaultPAMAConfig()),
		NewPrePAMA(),
		NewStatic(),
		NewPSA(0),
		NewCAMP(),
	}
	for _, p := range pols {
		c, err := New(Config{CacheBytes: 4 << 20}, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := c.Set("x", 10, 0.01, 0, nil); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestFacadeWorkloadsAndModels(t *testing.T) {
	for _, cfg := range []WorkloadConfig{ETCWorkload(), APPWorkload()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		gen, err := NewWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := gen.Next()
		if err != nil || r.Size == 0 {
			t.Fatalf("generator broken: %+v %v", r, err)
		}
	}
	m := DefaultPenaltyModel()
	if p := m.Of(HashKey("k"), 100); p <= 0 {
		t.Fatalf("penalty = %v", p)
	}
	if UniformPenaltyModel(0.2).Of(1, 1) != 0.2 {
		t.Fatal("uniform model broken")
	}
	if DefaultUnknownPenalty != 0.100 {
		t.Fatal("default unknown penalty changed")
	}
}

func TestFacadeSim(t *testing.T) {
	wl := ETCWorkload()
	wl.Keys = 1 << 13
	specs := []SimSpec{
		{
			Workload: wl, CacheBytes: 8 << 20, Requests: 30_000,
			MetricsWindow: 10_000, Policy: SimPolicySpec{Kind: "pama"},
			SampleSubClass: -1,
			Burst:          &SimBurstSpec{At: 10_000, FracOfCache: 0.05, Classes: []int{2, 3}},
		},
		{
			Workload: wl, CacheBytes: 8 << 20, Requests: 30_000,
			MetricsWindow: 10_000, Policy: SimPolicySpec{Kind: "psa"},
			SampleSubClass: -1,
		},
	}
	res, err := RunSimMatrix(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Series.MeanHitRatio() <= 0 {
			t.Fatalf("%s: empty series", r.Spec.Name)
		}
	}
	one, err := RunSim(specs[1])
	if err != nil || one.Stats.Gets == 0 {
		t.Fatalf("RunSim: %v", err)
	}
}

func TestFacadeServerRoundTrip(t *testing.T) {
	c, err := New(Config{CacheBytes: 8 << 20, StoreValues: true}, NewPrePAMA())
	if err != nil {
		t.Fatal(err)
	}
	wl := ETCWorkload()
	srv := NewServer(c, ServerOptions{Backend: NewBackend(wl.Penalty, wl.SizeOf)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	conn.Write([]byte("get readthrough-key\r\n"))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "VALUE readthrough-key") {
		t.Fatalf("read-through miss not served: %q", line)
	}
}

func TestFacadeShardedAndAlternativeEngines(t *testing.T) {
	g, err := NewSharded(Config{CacheBytes: 8 << 20, StoreValues: true}, 2,
		func() Policy { return NewPAMA(DefaultPAMAConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	if g.Shards() != 2 {
		t.Fatalf("shards = %d", g.Shards())
	}
	if err := g.Set("k", 10, 0.1, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, hit := g.Get("k", 0, 0, nil); !hit {
		t.Fatal("sharded get missed")
	}

	gd, err := NewGDSF(1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	gd.Set("k", 10, 0.5, 0, []byte("v"))
	if _, _, hit := gd.Get("k", 0, 0, nil); !hit {
		t.Fatal("gdsf get missed")
	}

	for _, pol := range []Policy{NewLAMA(ObjectiveMissRatio), NewLAMA(ObjectiveAvgTime)} {
		c, err := New(Config{CacheBytes: 4 << 20}, pol)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := c.Set("x", 10, 0.01, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeCASAndTTL(t *testing.T) {
	c, err := New(Config{CacheBytes: 4 << 20, StoreValues: true}, NewStatic())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTTL("k", 5, 0.1, 0, 1<<40, []byte("hello"))
	_, _, cas, hit := c.GetWithCAS("k", nil)
	if !hit || cas == 0 {
		t.Fatal("GetWithCAS through facade broken")
	}
	if !c.Touch("k", 1<<41) {
		t.Fatal("Touch through facade broken")
	}
	c.Set("n", 2, 0.1, 0, []byte("41"))
	if v, err := c.Delta("n", 1, false); err != nil || v != 42 {
		t.Fatalf("Delta: %d %v", v, err)
	}
}

func TestFacadeGeometryAndErrors(t *testing.T) {
	g := DefaultGeometry()
	if g.SlabSize != 1<<20 || g.NumClasses != 15 {
		t.Fatalf("geometry = %+v", g)
	}
	c, _ := New(Config{CacheBytes: 2 << 20}, NewStatic())
	if err := c.Set("huge", 4<<20, 0.1, 0, nil); err == nil {
		t.Fatal("oversized item accepted")
	}
	if KeyString(7) == "" || HashKey("x") == 0 {
		t.Fatal("key helpers broken")
	}
}
