package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

// TestConcurrentArbitrationRaceClean is the satellite concurrency oracle:
// tenants churn through the router from many goroutines while the arbiter
// moves slabs between their engines, and the model invariants must hold at
// every sample and at the end — values never corrupt, per-tenant budgets
// never breach reserve floors, the combined budget is conserved (donor-first
// transfers may dip it by at most the one slab in flight), and the isolation
// audit finds no stray items. Run with -race.
func TestConcurrentArbitrationRaceClean(t *testing.T) {
	reg, router, members := newTestGroup(t, []Config{
		{Name: "hot", Weight: 2},
		{Name: "bulk", ReservedBytes: 2 << 20, SLOClass: 2},
	}, 24<<20, 1)
	engines := router.Engines() // one per tenant, in id order
	arb, err := NewArbiter(members)
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, e := range engines {
		total += e.SlabBudget()
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		corrupts atomic.Uint64
		firstErr atomic.Value
	)

	// The hot tenant thrashes a skewed oversized working set (sizes from
	// the workload generator, no value bytes), creating the slab pressure
	// the arbiter acts on.
	gen, model := newThrasher(t, 41)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300_000 && !stop.Load(); i++ {
			r, err := gen.Next()
			if err != nil {
				return
			}
			key := "hot/" + kv.KeyString(r.Key)
			pen := model.Of(kv.HashString(key), int(r.Size))
			if _, _, hit := router.Get(key, int(r.Size), pen, nil); !hit {
				router.Set(key, int(r.Size), pen, 0, nil)
			}
		}
	}()

	// The bulk and default tenants write self-describing values (value ==
	// key bytes) and verify every hit, so any cross-slab corruption during
	// a concurrent donation drain is caught at the byte level.
	verify := func(prefix string, n int) {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			key := fmt.Sprintf("%s%d", prefix, i%n)
			val, _, hit := router.Get(key, 0, 0.01, nil)
			if hit {
				if !bytes.Equal(val, []byte(key)) {
					corrupts.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("get %q returned %q", key, val))
					return
				}
			} else if err := router.Set(key, len(key), 0.01, 0, []byte(key)); err != nil &&
				!errors.Is(err, cache.ErrNoSpace) && !errors.Is(err, cache.ErrTooLarge) {
				corrupts.Add(1)
				firstErr.CompareAndSwap(nil, fmt.Errorf("set %q: %w", key, err))
				return
			}
		}
	}
	wg.Add(3)
	go verify("bulk/k:", 3_000)
	go verify("bulk/j:", 3_000)
	go verify("plain:", 3_000)

	// The sampler audits mid-flight state: floors hold at every instant,
	// and the combined budget never strays beyond the one in-flight slab.
	// The engines are read one after the other, so a sum counts only when a
	// second reading finds every budget unchanged: the arbiter steps every
	// millisecond, and a sampler descheduled between two engines would
	// otherwise add budgets from before one move to budgets from after the
	// next.
	sampleErr := make(chan error, 1)
	fail := func(err error) {
		select {
		case sampleErr <- err:
		default:
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		first, again := make([]int, len(engines)), make([]int, len(engines))
		for !stop.Load() {
			sum, stable := 0, true
			for id, e := range engines {
				first[id] = e.SlabBudget()
				sum += first[id]
				if first[id] < arb.ReserveSlabs(id) {
					fail(fmt.Errorf("tenant %s budget %d below floor %d",
						reg.Config(id).Name, first[id], arb.ReserveSlabs(id)))
					return
				}
			}
			for id, e := range engines {
				again[id] = e.SlabBudget()
				stable = stable && again[id] == first[id]
			}
			if stable && (sum < total-1 || sum > total) {
				fail(fmt.Errorf("combined budget %d, want %d or %d", sum, total-1, total))
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	arb.Start(time.Millisecond)
	time.Sleep(400 * time.Millisecond)
	arb.Stop()
	stop.Store(true)
	wg.Wait()

	select {
	case err := <-sampleErr:
		t.Fatal(err)
	default:
	}
	if n := corrupts.Load(); n != 0 {
		t.Fatalf("%d corrupted or failed operations; first: %v", n, firstErr.Load())
	}
	sum := 0
	for _, e := range engines {
		sum += e.SlabBudget()
	}
	if sum != total {
		t.Fatalf("final combined budget %d != %d", sum, total)
	}
	if err := router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := CheckIsolation(members); err != nil {
		t.Fatal(err)
	}
	if st := arb.Stats(); st.Moves == 0 {
		t.Log("warning: storm finished without a slab move (timing-dependent); oracle still checked")
	} else {
		t.Logf("%d slab moves across %d steps under churn", st.Moves, st.Steps)
	}
	// Surviving values must still read back intact after the storm.
	checked := 0
	for i := 0; i < 3_000; i++ {
		key := fmt.Sprintf("bulk/k:%d", i)
		if val, _, hit := router.Get(key, 0, 0, nil); hit {
			checked++
			if !bytes.Equal(val, []byte(key)) {
				t.Fatalf("post-storm corruption: %q -> %q", key, val)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no bulk values survived; integrity sweep checked nothing")
	}
}
