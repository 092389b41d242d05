// Warm handoff: when a view change moves a key's arc to another owner,
// the old owner streams its resident copy over the existing peer protocol
// instead of letting the new owner's cache go cold. Keys move highest miss
// penalty first — the PAMA ordering: a 5s-recompute key that cold-misses
// costs four orders of magnitude more than a 1ms one, so it is the one
// whose warmth is worth the wire time. The stream is rate-limited,
// abortable (a newer view supersedes it), and yields under local overload
// pressure.
//
// Correctness across the epoch boundary: the routing table flips *before*
// the stream starts, so every write acked after cutover lands at (or is
// forwarded to) the new owner. Streamed values use "add", which never
// clobbers an existing entry — a key the new owner already holds (written
// post-cutover, or filled by a read-through miss) keeps its fresher value
// and the handoff copy is discarded with NOT_STORED. A STORED or
// NOT_STORED reply makes the receiver authoritative, so the sender drops
// its local copy; a transport error or any other reply — the target
// shedding the add under overload, refusing it outright — means the value
// never landed, so the sender keeps its copy (harmless: routing no longer
// points here), counts the miss toward Stats().Handoff.Errors, and offers
// the key again on the run's next pass (see runHandoff).
package membership

import (
	"sort"
	"sync/atomic"
	"time"

	"pamakv/internal/overload"
	"pamakv/internal/proto"
)

// Scanner walks live resident items; *cache.Cache and *shard.Group
// implement it (see cache.ScanKeys).
type Scanner interface {
	ScanKeys(fn func(key string, pen float64, size int, expireAt int64) bool)
}

// Source is the engine surface the warm handoff needs: scan the residents,
// re-read a value at send time, and drop the local copy once the new owner
// is authoritative. *cache.Cache and *shard.Group satisfy it directly.
type Source interface {
	Scanner
	Get(key string, sizeHint int, penHint float64, buf []byte) ([]byte, uint32, bool)
	Delete(key string) bool
}

// HandoffKey is one key scheduled for streaming.
type HandoffKey struct {
	Key      string
	Pen      float64
	Size     int
	ExpireAt int64
	Target   string
}

// Plan scans src for resident keys that route away from this node and
// orders them highest penalty first (ties broken by key, so the plan is a
// deterministic function of the residents and the view). route returns the
// target owner and whether the key actually moved. The same ordering runs
// in the churn simulation (internal/sim), so the figure measures exactly
// the policy the live path ships.
func Plan(src Scanner, route func(key string) (target string, moved bool)) []HandoffKey {
	var plan []HandoffKey
	src.ScanKeys(func(key string, pen float64, size int, expireAt int64) bool {
		if target, moved := route(key); moved {
			plan = append(plan, HandoffKey{Key: key, Pen: pen, Size: size, ExpireAt: expireAt, Target: target})
		}
		return true
	})
	sort.Slice(plan, func(i, j int) bool {
		if plan[i].Pen != plan[j].Pen {
			return plan[i].Pen > plan[j].Pen
		}
		return plan[i].Key < plan[j].Key
	})
	return plan
}

// handoff is one streaming run; a newer Apply aborts it and starts a
// fresh one planned against the newer view.
type handoff struct {
	epoch uint64
	abort chan struct{}
}

func (h *handoff) abortOnce() {
	select {
	case <-h.abort:
	default:
		close(h.abort)
	}
}

// startHandoffLocked aborts any in-flight handoff and, when a source is
// configured and warm handoff is enabled, launches a new run for the view
// just applied. Caller holds m.mu (which also serializes the abort/close
// pair).
func (m *Manager) startHandoffLocked(epoch uint64) {
	if m.ho != nil {
		m.ho.abortOnce()
		m.ho = nil
	}
	if m.cfg.Source == nil || m.cfg.HandoffRate < 0 || m.stopped {
		return
	}
	ho := &handoff{epoch: epoch, abort: make(chan struct{})}
	m.ho = ho
	m.wg.Add(1)
	go m.runHandoff(ho)
}

// tierOf reads the overload tier through fn (nil = always normal).
func tierOf(fn func() int) int {
	if fn == nil {
		return overload.TierNormal
	}
	return fn()
}

// runHandoff executes one streaming run: penalty-ordered passes over the
// residents until one finds nothing left to move. A single pass strands the
// keys that land here after its scan — a write that passed the owner check
// just before cutover, a key whose add the target shed — and nothing would
// ever plan them again. A pass that moves nothing ends the run, so keys the
// target keeps refusing cannot spin it.
func (m *Manager) runHandoff(ho *handoff) {
	defer m.wg.Done()
	src, tier := m.cfg.Source, m.cfg.Tier
	peers := m.cfg.Peers
	start := time.Now()
	route := func(key string) (string, bool) {
		o := peers.Owner(key)
		return o, o != "" && o != m.self
	}

	plan := Plan(src, route)
	if len(plan) == 0 {
		return
	}
	m.hoActive.Store(true) // before the count: who sees the run counted sees it active or done
	atomic.AddUint64(&m.ctr.Handoff.Runs, 1)
	defer m.hoActive.Store(false)
	m.logf("membership: epoch %d handoff: streaming %d keys", ho.epoch, len(plan))

	planned, sent := 0, 0
	for len(plan) > 0 {
		planned += len(plan)
		atomic.AddUint64(&m.ctr.Handoff.KeysPlanned, uint64(len(plan)))
		n, aborted := m.streamPass(ho, src, tier, plan)
		sent += n
		if aborted {
			atomic.AddUint64(&m.ctr.Handoff.Aborts, 1)
			m.logf("membership: epoch %d handoff aborted after %d/%d keys", ho.epoch, sent, planned)
			return
		}
		if n == 0 {
			break
		}
		plan = Plan(src, route)
	}
	m.hoDur.Observe(time.Since(start).Seconds())
	m.logf("membership: epoch %d handoff done: %d/%d keys in %s",
		ho.epoch, sent, planned, time.Since(start).Round(time.Millisecond))
}

// streamPass sends one plan's keys to their new owners, paced and yielding
// under local overload, and reports how many the owners took and whether a
// newer view aborted the run.
func (m *Manager) streamPass(ho *handoff, src Source, tier func() int, plan []HandoffKey) (sent int, aborted bool) {
	peers := m.cfg.Peers
	rate := m.cfg.HandoffRate
	if rate <= 0 {
		rate = DefaultHandoffRate
	}
	pause := time.Duration(handoffBatch) * (time.Second / time.Duration(rate))
	vbuf := make([]byte, 0, 16<<10)
	req := make([]byte, 0, 4<<10)
	for _, hk := range plan {
		select {
		case <-ho.abort:
			return sent, true
		default:
		}
		// Yield under local pressure: pause outright at critical, crawl
		// at strained — recovering warmth must not worsen an overload.
		for tierOf(tier) >= overload.TierCritical {
			select {
			case <-ho.abort:
				return sent, true
			case <-time.After(25 * time.Millisecond):
			}
		}
		if tierOf(tier) >= overload.TierStrained {
			time.Sleep(4 * time.Second / time.Duration(rate))
		}
		val, flags, ok := src.Get(hk.Key, hk.Size, hk.Pen, vbuf[:0])
		if !ok {
			continue // evicted or expired since the scan
		}
		if cap(val) > cap(vbuf) {
			vbuf = val[:0]
		}
		cl := peers.ClientFor(hk.Target)
		if cl == nil {
			atomic.AddUint64(&m.ctr.Handoff.Errors, 1)
			continue // target departed in a yet-newer view
		}
		req = proto.AppendCommand(req[:0], &proto.Command{
			Verb: proto.VerbAdd, Keys: []string{hk.Key}, Flags: flags,
			Exptime: hk.ExpireAt, Data: val,
		})
		resp, err := cl.Do(req)
		if err != nil {
			atomic.AddUint64(&m.ctr.Handoff.Errors, 1)
			continue
		}
		if resp.Status != proto.StatusStored && resp.Status != proto.StatusNotStored {
			// The target answered but the add did not take — shed under
			// overload, refused. It never became authoritative for this
			// key, so keep the local copy and count the miss (Do returns
			// a nil error for any well-formed reply, so the status check
			// is the only thing standing between a shed and a cold drop).
			atomic.AddUint64(&m.ctr.Handoff.Errors, 1)
			continue
		}
		// STORED or NOT_STORED: the new owner is authoritative either
		// way; drop the local copy to restore one-cache-line-per-key.
		atomic.AddUint64(&m.ctr.Handoff.KeysSent, 1)
		atomic.AddUint64(&m.ctr.Handoff.BytesSent, uint64(len(val)))
		src.Delete(hk.Key)
		sent++
		if sent%handoffBatch == 0 {
			select {
			case <-ho.abort:
				return sent, true
			case <-time.After(pause):
			}
		}
	}
	return sent, false
}
