package sim

// The churn figure: what happens to a live cluster's hit ratio and miss
// penalty when a node is added, under three rebalance disciplines —
//
//	cold            the moved arc starts empty on the new node and is
//	                refilled only by demand misses (classic memcached
//	                resharding);
//	warm-unordered  the old owners stream their moved residents to the
//	                new node at a bounded rate, in key order;
//	warm            the same stream, highest miss penalty first — the
//	                live handoff's policy (membership.Plan, the very
//	                function the server runs).
//
// Three identical clusters replay the same request stream, so the curves
// differ only by discipline. The figure backs the ROADMAP claim that
// penalty-ordered warm handoff recovers the hit ratio (and suppresses
// the penalty spike) measurably faster than a cold rebalance.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/membership"
	"pamakv/internal/workload"
)

// Churn rebalance disciplines.
const (
	ChurnCold          = "cold"
	ChurnWarmUnordered = "warm-unordered"
	ChurnWarm          = "warm"
)

// ChurnSpec parameterizes one churn simulation.
type ChurnSpec struct {
	// Mode is one of the Churn* disciplines.
	Mode string
	// Nodes is the pre-add cluster size; one node is added at the event.
	Nodes int
	// BytesPerNode is each node's engine budget.
	BytesPerNode int64
	// Workload generates the request stream (shared across modes).
	Workload workload.Config
	// WindowLen is the measurement window in requests.
	WindowLen uint64
	// WarmupWindows run before the add; PostWindows after it.
	WarmupWindows, PostWindows int
	// RatePerWindow bounds warm streaming to this many keys between
	// windows — the sim's stand-in for the live HandoffRate.
	RatePerWindow int
}

// ChurnWindow is one measurement window's outcome.
type ChurnWindow struct {
	Window      int
	HitRatio    float64
	MissPenalty float64
	// Transferred counts handoff keys streamed before this window.
	Transferred int
}

// ChurnRun is one discipline's full trajectory.
type ChurnRun struct {
	Mode    string
	Windows []ChurnWindow
	// SteadyHit is the mean hit ratio over the last pre-event windows.
	SteadyHit float64
	// DipHit is the worst post-event window.
	DipHit float64
	// RecoverWindows is how many windows after the event the hit ratio
	// needed to get back within ChurnRecoverFrac of steady state; -1 if
	// it never did inside the run.
	RecoverWindows int
	// PostPenalty is the cumulative post-event miss penalty in seconds —
	// the cost of the churn under this discipline.
	PostPenalty float64
	// TransferredKeys is the total streamed by the handoff.
	TransferredKeys int
}

// ChurnFigureResult is the churn figure: one run per discipline over the
// same stream.
type ChurnFigureResult struct {
	Runs []*ChurnRun
	// EventWindow is the window index at which the node was added.
	EventWindow int
	WindowLen   uint64
}

// churnMove is one planned transfer: a HandoffKey plus its source engine.
type churnMove struct {
	src int
	hk  membership.HandoffKey
}

// RunChurn executes one churn simulation.
func RunChurn(spec ChurnSpec) (*ChurnRun, error) {
	if spec.Nodes < 2 {
		return nil, fmt.Errorf("sim: churn needs >= 2 nodes, have %d", spec.Nodes)
	}
	addrs := make([]string, spec.Nodes+1)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%d", i)
	}
	addrIdx := make(map[string]int, len(addrs))
	for i, a := range addrs {
		addrIdx[a] = i
	}
	oldRing := cluster.NewRing(addrs[:spec.Nodes], 0)
	newRing := cluster.NewRing(addrs, 0)

	engines := make([]*cache.Cache, len(addrs))
	for i := range engines {
		eng, err := cache.New(cache.Config{
			Geometry:   kv.DefaultGeometry(),
			CacheBytes: spec.BytesPerNode,
			WindowLen:  nodeEngineWindow,
		}, core.New(core.DefaultConfig()))
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	gen, err := workload.New(spec.Workload)
	if err != nil {
		return nil, err
	}
	model := spec.Workload.Penalty

	run := &ChurnRun{Mode: spec.Mode, RecoverWindows: -1}
	ring := oldRing
	var plan []churnMove
	eventStep := uint64(spec.WarmupWindows) * spec.WindowLen
	totalSteps := eventStep + uint64(spec.PostWindows)*spec.WindowLen
	eventWindow := spec.WarmupWindows

	var winHits, winGets uint64
	var winPen float64
	window := 0
	for step := uint64(0); step < totalSteps; step++ {
		if step == eventStep {
			// The node joins: cutover first (routing flips), then — for
			// the warm disciplines — plan the stream exactly the way the
			// live handoff does, per departing owner.
			ring = newRing
			if spec.Mode != ChurnCold {
				for i := 0; i < spec.Nodes; i++ {
					self := addrs[i]
					for _, hk := range membership.Plan(engines[i], func(key string) (string, bool) {
						o := newRing.Owner(key)
						return o, o != self
					}) {
						plan = append(plan, churnMove{src: i, hk: hk})
					}
				}
				switch spec.Mode {
				case ChurnWarm:
					// membership.Plan's order (penalty desc, key asc) is
					// already per-engine; re-sort the merged plan globally.
					sort.Slice(plan, func(i, j int) bool {
						if plan[i].hk.Pen != plan[j].hk.Pen {
							return plan[i].hk.Pen > plan[j].hk.Pen
						}
						return plan[i].hk.Key < plan[j].hk.Key
					})
				case ChurnWarmUnordered:
					sort.Slice(plan, func(i, j int) bool { return plan[i].hk.Key < plan[j].hk.Key })
				default:
					return nil, fmt.Errorf("sim: unknown churn mode %q", spec.Mode)
				}
			}
		}

		r, err := gen.Next()
		if err != nil {
			return nil, err
		}
		rc := record(r, model)
		get, hit, err := serve(engines[addrIdx[ring.Owner(kv.KeyString(r.Key))]], &rc)
		if err != nil {
			return nil, err
		}
		if get {
			winGets++
			if hit {
				winHits++
			} else {
				winPen += rc.pen
			}
		}

		if (step+1)%spec.WindowLen != 0 {
			continue
		}
		// Window boundary: record, then (post-event) stream one window's
		// handoff budget, exactly like the live rate limiter.
		hr := 0.0
		if winGets > 0 {
			hr = float64(winHits) / float64(winGets)
		}
		run.Windows = append(run.Windows, ChurnWindow{
			Window: window, HitRatio: hr, MissPenalty: winPen,
			Transferred: run.TransferredKeys,
		})
		winHits, winGets, winPen = 0, 0, 0
		window++
		for n := 0; n < spec.RatePerWindow && len(plan) > 0; {
			mv := plan[0]
			plan = plan[1:]
			src := engines[mv.src]
			if _, _, ok := src.Get(mv.hk.Key, mv.hk.Size, mv.hk.Pen, nil); !ok {
				continue // evicted since the scan; costs no budget
			}
			dst := engines[addrIdx[mv.hk.Target]]
			if err := dst.Set(mv.hk.Key, mv.hk.Size, mv.hk.Pen, 0, nil); err != nil && !ignorableSet(err) {
				return nil, err
			}
			src.Delete(mv.hk.Key)
			run.TransferredKeys++
			n++
		}
	}

	for i, eng := range engines {
		if err := eng.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("sim: churn node %s: %w", addrs[i], err)
		}
	}

	// Steady state: mean of the last half of the warmup windows.
	half := eventWindow / 2
	var steady float64
	for _, w := range run.Windows[half:eventWindow] {
		steady += w.HitRatio
	}
	run.SteadyHit = steady / float64(eventWindow-half)
	run.DipHit = 1.0
	post := run.Windows[eventWindow:]
	for _, w := range post {
		if w.HitRatio < run.DipHit {
			run.DipHit = w.HitRatio
		}
		run.PostPenalty += w.MissPenalty
	}
	// Recovered = the hit ratio is back within ChurnRecoverFrac of steady
	// and *stays* there (a single lucky window inside the dip does not
	// count — window-to-window noise is on the order of the threshold).
	const sustain = 3
	threshold := ChurnRecoverFrac * run.SteadyHit
	streak := 0
	for i, w := range post {
		if w.HitRatio >= threshold {
			streak++
			if streak == sustain {
				run.RecoverWindows = i - sustain + 1
				break
			}
		} else {
			streak = 0
		}
	}
	return run, nil
}

// ChurnRecoverFrac defines "recovered": the first post-event window
// whose hit ratio is back within 1% of steady state.
const ChurnRecoverFrac = 0.99

// ChurnSpecFor returns the figure's spec for one mode at the given
// request scale. All modes share the stream (same workload, same seed).
// The zipf exponent is flatter than ETC's so the moved arc's warm tail
// refills slowly on demand — exactly the regime where a warm handoff
// earns its keep; a needle-sharp hot set would re-warm itself in one
// window and hide the effect the figure measures.
func ChurnSpecFor(mode string, scale float64) ChurnSpec {
	wl := workload.ETC()
	wl.Name = "churn"
	wl.Keys = 250_000
	wl.ZipfS = 0.75
	wl.ColdFrac = 0
	wl.RotateEvery = 0
	wl.Seed = 77
	post := int(scaled(500_000, scale) / 5_000)
	if post > 100 {
		post = 100
	}
	if post < 50 {
		post = 50
	}
	return ChurnSpec{
		Mode:          mode,
		Nodes:         3,
		BytesPerNode:  24 << 20,
		Workload:      wl,
		WindowLen:     5_000,
		WarmupWindows: 24,
		PostWindows:   post,
		RatePerWindow: 2_000,
	}
}

// figureChurn is the churn figure. It has no Specs: its Render runs
// RunChurnFigure, whose clusters are not single-engine replays.
func figureChurn(scale float64) (*Figure, error) {
	f := &Figure{ID: "churn", Title: "cold rebalance vs penalty-ordered warm handoff"}
	f.Render = func(w io.Writer, _ []*Result) error {
		r, err := RunChurnFigure(scale, f.Workers)
		if err != nil {
			return err
		}
		return RenderChurn(w, r)
	}
	return f, nil
}

// RunChurnFigure executes the churn figure: the three disciplines over the
// same stream, at most workers at once (0 means GOMAXPROCS).
func RunChurnFigure(scale float64, workers int) (*ChurnFigureResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	modes := []string{ChurnCold, ChurnWarmUnordered, ChurnWarm}
	out := &ChurnFigureResult{Runs: make([]*ChurnRun, len(modes))}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	errs := make([]error, len(modes))
	for i, mode := range modes {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, mode string) {
			defer func() { <-sem; wg.Done() }()
			out.Runs[i], errs[i] = RunChurn(ChurnSpecFor(mode, scale))
		}(i, mode)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	spec := ChurnSpecFor(ChurnCold, scale)
	out.EventWindow = spec.WarmupWindows
	out.WindowLen = spec.WindowLen
	return out, nil
}

// RenderChurn writes the churn figure as TSV: one row per (window, mode)
// plus summary comment lines.
func RenderChurn(w io.Writer, r *ChurnFigureResult) error {
	if _, err := fmt.Fprintln(w, "window\tmode\thit_ratio\tmiss_penalty_s\ttransferred"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		for _, win := range run.Windows {
			if _, err := fmt.Fprintf(w, "%d\t%s\t%.4f\t%.2f\t%d\n",
				win.Window, run.Mode, win.HitRatio, win.MissPenalty, win.Transferred); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "# node added at window %d (window = %d requests)\n",
		r.EventWindow, r.WindowLen); err != nil {
		return err
	}
	for _, run := range r.Runs {
		rec := "never"
		if run.RecoverWindows >= 0 {
			rec = fmt.Sprintf("%d windows", run.RecoverWindows)
		}
		if _, err := fmt.Fprintf(w, "# %s: steady %.4f, dip %.4f, recovered in %s, post-event miss penalty %.1fs, %d keys streamed\n",
			run.Mode, run.SteadyHit, run.DipHit, rec, run.PostPenalty, run.TransferredKeys); err != nil {
			return err
		}
	}
	return nil
}
