package sim

import (
	"strings"
	"testing"
)

// TestChurnFigureGate is the CI churn gate's simulator half: on a node
// add, penalty-ordered warm handoff must recover the hit ratio
// measurably faster than a cold rebalance, and must carry the lowest
// post-event miss-penalty bill of the three disciplines. Everything is
// deterministic (fixed seeds, one engine set per mode, synchronous
// streaming between windows), so the gate is exact, not statistical.
func TestChurnFigureGate(t *testing.T) {
	if testing.Short() {
		t.Skip("churn gate replays hundreds of thousands of requests")
	}
	r, err := RunChurnFigure(0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]*ChurnRun{}
	for _, run := range r.Runs {
		byMode[run.Mode] = run
		t.Logf("%s: steady %.4f dip %.4f recover %d post-penalty %.0fs streamed %d",
			run.Mode, run.SteadyHit, run.DipHit, run.RecoverWindows, run.PostPenalty, run.TransferredKeys)
	}
	cold, warm, unord := byMode[ChurnCold], byMode[ChurnWarm], byMode[ChurnWarmUnordered]
	if cold == nil || warm == nil || unord == nil {
		t.Fatalf("missing modes in %v", r.Runs)
	}

	// All modes replayed the same stream: identical steady state.
	if cold.SteadyHit != warm.SteadyHit || cold.SteadyHit != unord.SteadyHit {
		t.Fatalf("steady states diverge: cold %.4f unordered %.4f warm %.4f",
			cold.SteadyHit, unord.SteadyHit, warm.SteadyHit)
	}
	if cold.TransferredKeys != 0 {
		t.Fatalf("cold rebalance streamed %d keys", cold.TransferredKeys)
	}
	if warm.TransferredKeys == 0 || unord.TransferredKeys == 0 {
		t.Fatal("warm modes streamed nothing; the comparison proves nothing")
	}

	// The headline claim: warm handoff recovers the hit ratio measurably
	// faster than cold. (-1 = never recovered inside the run.)
	warmRec, coldRec := warm.RecoverWindows, cold.RecoverWindows
	if warmRec < 0 {
		t.Fatalf("warm handoff never recovered (cold: %d)", coldRec)
	}
	if coldRec >= 0 && warmRec >= coldRec {
		t.Fatalf("warm handoff recovered in %d windows, cold in %d — no speedup", warmRec, coldRec)
	}

	// The penalty claim: ordering the stream by miss penalty minimizes
	// the churn's penalty bill — below cold, and at or below the same
	// stream sent in key order.
	if warm.PostPenalty >= cold.PostPenalty {
		t.Fatalf("warm post-event penalty %.0fs not below cold %.0fs", warm.PostPenalty, cold.PostPenalty)
	}
	if warm.PostPenalty > unord.PostPenalty {
		t.Fatalf("penalty-ordered stream cost %.0fs, key-ordered %.0fs — ordering bought nothing",
			warm.PostPenalty, unord.PostPenalty)
	}

	var sb strings.Builder
	if err := RenderChurn(&sb, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"window\tmode\thit_ratio", "cold", "warm-unordered", "# node added at window"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("RenderChurn output missing %q", want)
		}
	}
}

// TestRunChurnValidation pins the spec validation and the no-plan path.
func TestRunChurnValidation(t *testing.T) {
	if _, err := RunChurn(ChurnSpec{Mode: ChurnCold, Nodes: 1}); err == nil {
		t.Fatal("single-node churn accepted")
	}
	spec := ChurnSpecFor("nonsense", 0.01)
	spec.WarmupWindows, spec.PostWindows = 2, 2
	spec.WindowLen = 1_000
	if _, err := RunChurn(spec); err == nil {
		t.Fatal("unknown churn mode accepted")
	}
}

// TestRunChurnSkipsRefusedStores: keys too large for any slab class are
// refused by the engine with a wrapped ErrTooLarge, which the churn
// simulator skips exactly as Run and RunMulti do, instead of aborting.
func TestRunChurnSkipsRefusedStores(t *testing.T) {
	spec := ChurnSpecFor(ChurnCold, 0.01)
	spec.WarmupWindows, spec.PostWindows = 2, 2
	spec.WindowLen = 1_000
	weights := make([]float64, 17)
	weights[0], weights[16] = 1, 1 // band 16: 2–4 MiB, past the 1 MiB slab
	spec.Workload.ClassWeights = weights
	run, err := RunChurn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Windows) != spec.WarmupWindows+spec.PostWindows {
		t.Fatalf("%d windows, want %d", len(run.Windows), spec.WarmupWindows+spec.PostWindows)
	}
}
