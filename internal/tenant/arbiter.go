package tenant

import (
	"fmt"
	"sync"
	"time"

	"pamakv/internal/cache"
)

// Member is one tenant's engine set as seen by the arbiter: id and config
// from the registry plus the engines (shards) holding its data.
type Member struct {
	ID      int
	Cfg     Config
	Engines []*cache.Cache
}

// DefaultMinGain is the multiplicative hysteresis on moves: the receiver's
// weighted incoming value must exceed the donor's weighted outgoing value
// by this factor, preventing slab ping-pong between near-equal tenants.
const DefaultMinGain = 1.05

// Arbiter periodically rebalances the slab budget across tenants. Each
// step compares every tenant's weighted marginal gain (best PAMA
// incoming-slab value across its engines × weight) against donors' weighted
// marginal loss (cheapest outgoing value × weight) and moves one slab of
// budget from the cheapest donor to the neediest receiver — the same
// not-worth-it test PAMA's MakeRoom applies within one engine, lifted
// across engines. A donor never drops below its reserve floor.
type Arbiter struct {
	members []Member
	reserve []int // floor, in slabs, per member
	minGain float64

	mu      sync.Mutex
	steps   uint64
	total   uint64
	moves   [][]uint64 // [donor][receiver] slabs moved
	lastIn  []float64
	lastOut []float64

	stop chan struct{}
	done chan struct{}
}

// NewArbiter builds an arbiter over the tenants' engine sets. Every member
// must have at least one engine, and reserves are converted to slab floors
// against the engines' slab size (at least one slab per engine, so every
// engine stays servable).
func NewArbiter(members []Member) (*Arbiter, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("tenant: arbiter needs >= 2 tenants, got %d", len(members))
	}
	a := &Arbiter{
		members: members,
		reserve: make([]int, len(members)),
		minGain: DefaultMinGain,
		moves:   make([][]uint64, len(members)),
		lastIn:  make([]float64, len(members)),
		lastOut: make([]float64, len(members)),
	}
	for i, m := range members {
		if len(m.Engines) == 0 {
			return nil, fmt.Errorf("tenant: %s has no engines", m.Cfg.Name)
		}
		slabSize := int64(m.Engines[0].Geometry().SlabSize)
		floor := int((m.Cfg.ReservedBytes + slabSize - 1) / slabSize)
		if floor < len(m.Engines) {
			floor = len(m.Engines)
		}
		a.reserve[i] = floor
		a.moves[i] = make([]uint64, len(members))
	}
	return a, nil
}

// ReserveSlabs returns member i's floor in slabs.
func (a *Arbiter) ReserveSlabs(i int) int { return a.reserve[i] }

// memberView is one tenant's marginal utilities gathered for a step.
type memberView struct {
	in, out    float64 // weighted
	rawIn      float64
	rawOut     float64
	slabs      int
	recvEngine *cache.Cache // engine with the best incoming value
	donEngine  *cache.Cache // engine with the cheapest donatable slab
}

// Step runs one arbitration round, reporting whether a slab moved. It is
// safe to call concurrently with traffic; each engine serializes
// internally and the slab transfer is donor-first, so the combined budget
// never exceeds its configured total.
func (a *Arbiter) Step() bool {
	views := make([]memberView, len(a.members))
	for i, m := range a.members {
		v := &views[i]
		for _, e := range m.Engines {
			in, out, can := e.ArbiterValues()
			if in >= v.rawIn {
				v.rawIn, v.recvEngine = in, e
			}
			if can && (v.donEngine == nil || out < v.rawOut) {
				v.rawOut, v.donEngine = out, e
			}
			v.slabs += e.SlabBudget()
		}
		if v.recvEngine == nil {
			v.recvEngine = m.Engines[0]
		}
		v.in = v.rawIn * m.Cfg.Weight
		v.out = v.rawOut * m.Cfg.Weight
	}

	// Receiver first (largest weighted gain), then the cheapest eligible
	// donor among the others — a thrashing tenant can have both the
	// largest incoming value and near-zero outgoing value, and it must
	// not fund itself.
	recv, donor := -1, -1
	for i := range views {
		if v := &views[i]; v.rawIn > 0 && (recv < 0 || v.in > views[recv].in) {
			recv = i
		}
	}
	for i := range views {
		v := &views[i]
		if i == recv || v.donEngine == nil || v.slabs-1 < a.reserve[i] {
			continue
		}
		if donor < 0 || v.out < views[donor].out {
			donor = i
		}
	}
	moved := false
	if recv >= 0 && donor >= 0 &&
		views[recv].in > views[donor].out*a.minGain {
		if err := views[donor].donEngine.DonateSlab(); err == nil {
			views[recv].recvEngine.ReceiveSlab()
			moved = true
		}
	}

	a.mu.Lock()
	a.steps++
	if moved {
		a.total++
		a.moves[donor][recv]++
	}
	for i := range views {
		a.lastIn[i] = views[i].rawIn
		a.lastOut[i] = views[i].rawOut
	}
	a.mu.Unlock()
	return moved
}

// Start launches the periodic arbitration loop. Stop halts it.
func (a *Arbiter) Start(every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go func() {
		defer close(a.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				a.Step()
			}
		}
	}()
}

// Stop halts the loop started by Start and waits for it to exit.
func (a *Arbiter) Stop() {
	if a.stop == nil {
		return
	}
	close(a.stop)
	<-a.done
	a.stop, a.done = nil, nil
}

// MemberStats is one tenant's arbitration state.
type MemberStats struct {
	Name         string  `json:"name"`
	Weight       float64 `json:"weight" prom:"pamakv_tenant_weight" help:"Arbitration weight."`
	SLOClass     int     `json:"slo_class" prom:"pamakv_tenant_slo_class" help:"Overload SLO class (0 = most protected)."`
	ReserveSlabs int     `json:"reserve_slabs" prom:"pamakv_tenant_reserve_slabs" help:"Slab floor the arbiter never breaches."`
	Slabs        int     `json:"slabs" prom:"pamakv_tenant_slabs" help:"Slabs currently budgeted to the tenant."`
	// Incoming and Outgoing are the tenant's marginal slab values at the
	// last arbitration step (zero before the first).
	Incoming float64 `json:"incoming" prom:"pamakv_tenant_incoming_value" help:"Marginal penalty saved per window were the tenant granted one slab (last arbiter step)."`
	Outgoing float64 `json:"outgoing" prom:"pamakv_tenant_outgoing_value" help:"Marginal penalty paid per window giving one slab up (last arbiter step)."`
	SlabsIn  uint64  `json:"slabs_in" prom:"pamakv_tenant_slabs_in_total" help:"Slabs received from other tenants by arbitration."`
	SlabsOut uint64  `json:"slabs_out" prom:"pamakv_tenant_slabs_out_total" help:"Slabs donated to other tenants by arbitration."`
}

// ArbiterStats is a consistent snapshot of the arbiter's counters.
type ArbiterStats struct {
	Steps   uint64        `json:"steps" prom:"pamakv_tenant_arbiter_steps_total" help:"Arbitration rounds run."`
	Moves   uint64        `json:"moves" prom:"pamakv_tenant_arbiter_moves_total" help:"Slabs moved between tenants."`
	Members []MemberStats `json:"members"`
	// Matrix[d][r] counts slabs moved from tenant d to tenant r.
	Matrix [][]uint64 `json:"matrix"`
}

// Stats snapshots the arbiter.
func (a *Arbiter) Stats() ArbiterStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ArbiterStats{
		Steps:   a.steps,
		Moves:   a.total,
		Members: make([]MemberStats, len(a.members)),
		Matrix:  make([][]uint64, len(a.members)),
	}
	for i, m := range a.members {
		var in, out uint64
		slabs := 0
		for _, e := range m.Engines {
			est := e.Stats()
			in += est.SlabReceipts
			out += est.SlabDonations
			slabs += e.SlabBudget()
		}
		st.Members[i] = MemberStats{
			Name:         m.Cfg.Name,
			Weight:       m.Cfg.Weight,
			SLOClass:     m.Cfg.SLOClass,
			ReserveSlabs: a.reserve[i],
			Slabs:        slabs,
			Incoming:     a.lastIn[i],
			Outgoing:     a.lastOut[i],
			SlabsIn:      in,
			SlabsOut:     out,
		}
		st.Matrix[i] = append([]uint64(nil), a.moves[i]...)
	}
	return st
}
