package client

import (
	"pamakv/internal/cluster"
	"pamakv/internal/proto"
)

// maxRetainedReq caps the per-owner request render buffer a pipeline keeps
// across batches; a one-off giant batch must not pin its buffer forever.
const maxRetainedReq = 1 << 18

// rmeta is one operation's outcome before materialization: arena intervals
// instead of slices, because the arena may still grow while later owners
// reply.
type rmeta struct {
	valOff, valEnd int
	flags          uint32
	cas            uint64
	number         uint64
	err            error
	hasVal         bool
}

// Result is one pipelined operation's outcome.
//
// Value is a view into the pipeline's reusable arena: valid until the next
// Exec (or Reset) on the same pipeline, never beyond. Copy it to keep it.
// Err carries the same errors the single-op methods return (ErrCacheMiss
// for a get miss, ErrNotStored, ErrCASConflict, ErrServerBusy, ...). Results
// are per operation: a shed or rejected operation fails alone; when a
// server's connection breaks after it answered k of its operations, those k
// keep their replies and each of the rest carries the transport error; an
// open circuit breaker fails its member's operations, and no others, with
// cluster.ErrPeerDown.
type Result struct {
	Value  []byte
	Flags  uint32
	CAS    uint64
	Number uint64
	Err    error
}

// Pipeline batches operations into one exchange per owning server — N
// round-trip latencies collapse into one, and a sharded batch costs its
// slowest owner, not the sum of them. Queue operations with the typed
// methods, then Exec.
//
// A Pipeline is reusable (Exec clears the queue) but not safe for
// concurrent use; keep one per worker goroutine. In steady state Exec
// performs zero heap allocations for GET hits — results live in a reusable
// arena, requests are rendered into buffers the pipeline keeps.
type Pipeline struct {
	c       *Client
	ops     []op
	meta    []rmeta
	results []Result
	arena   []byte
	// owners[i] is member i's share of the batch being executed.
	owners []ownerBatch
}

// ownerBatch is one member's share of a batch: which ops it owns, their
// rendered requests, and the exchange carrying them.
type ownerBatch struct {
	idxs []int32
	req  []byte
	x    cluster.Exchange
}

// Pipeline returns an empty pipeline bound to the client.
func (c *Client) Pipeline() *Pipeline {
	return &Pipeline{c: c, owners: make([]ownerBatch, len(c.peers))}
}

// Get queues a retrieval; the Result carries Value+Flags on a hit,
// ErrCacheMiss on a miss.
func (p *Pipeline) Get(key string) { p.push(op{verb: proto.VerbGet, key: key}) }

// Gets queues a retrieval with the CAS token.
func (p *Pipeline) Gets(key string) { p.push(op{verb: proto.VerbGets, key: key}) }

// Set queues an unconditional store. value must stay untouched until Exec.
func (p *Pipeline) Set(key string, flags uint32, exptime int64, value []byte) {
	p.push(op{verb: proto.VerbSet, key: key, flags: flags, exptime: exptime, value: value})
}

// Add queues a store-if-absent.
func (p *Pipeline) Add(key string, flags uint32, exptime int64, value []byte) {
	p.push(op{verb: proto.VerbAdd, key: key, flags: flags, exptime: exptime, value: value})
}

// Replace queues a store-if-present.
func (p *Pipeline) Replace(key string, flags uint32, exptime int64, value []byte) {
	p.push(op{verb: proto.VerbReplace, key: key, flags: flags, exptime: exptime, value: value})
}

// Append queues a right-concatenation onto a present value.
func (p *Pipeline) Append(key string, value []byte) {
	p.push(op{verb: proto.VerbAppend, key: key, value: value})
}

// Prepend queues a left-concatenation onto a present value.
func (p *Pipeline) Prepend(key string, value []byte) {
	p.push(op{verb: proto.VerbPrepend, key: key, value: value})
}

// CAS queues a compare-and-swap against the token from a prior Gets.
func (p *Pipeline) CAS(key string, flags uint32, exptime int64, value []byte, cas uint64) {
	p.push(op{verb: proto.VerbCAS, key: key, flags: flags, exptime: exptime, value: value, num: cas})
}

// Delete queues a removal.
func (p *Pipeline) Delete(key string) { p.push(op{verb: proto.VerbDelete, key: key}) }

// Incr queues an atomic add; the Result carries the new value in Number.
func (p *Pipeline) Incr(key string, delta uint64) {
	p.push(op{verb: proto.VerbIncr, key: key, num: delta})
}

// Decr queues an atomic subtract (clamped at zero).
func (p *Pipeline) Decr(key string, delta uint64) {
	p.push(op{verb: proto.VerbDecr, key: key, num: delta})
}

// Touch queues an expiry rearm.
func (p *Pipeline) Touch(key string, exptime int64) {
	p.push(op{verb: proto.VerbTouch, key: key, exptime: exptime})
}

// Len returns the number of queued operations.
func (p *Pipeline) Len() int { return len(p.ops) }

// Reset drops queued operations and invalidates previous Results.
func (p *Pipeline) Reset() { p.ops = p.ops[:0] }

func (p *Pipeline) push(o op) {
	o.key = p.c.qual(o.key)
	p.ops = append(p.ops, o)
}

// Exec flushes the queue: operations are grouped by owning server, every
// owner's group is sent as one exchange before any reply is awaited, and the
// replies are then read back owner by owner, in order. The returned slice has
// one Result per queued operation, in queue order; it and every Value in it
// are valid only until the next Exec or Reset.
//
// The returned error is reserved for the one whole-pipeline failure, a closed
// client (ErrClientClosed); every other outcome — transport failures and
// breaker fast-fails included — lands in the Results (see Result), so one
// dead server cannot mask the other owners' answers. Config.OpTimeout and
// Config.Retries apply to each owner's exchange as they do to a single
// operation.
func (p *Pipeline) Exec() ([]Result, error) {
	if p.c.closed.Load() {
		return nil, ErrClientClosed
	}
	n := len(p.ops)
	if n == 0 {
		return nil, nil
	}
	p.arena = p.arena[:0]
	if cap(p.meta) < n {
		p.meta = make([]rmeta, n)
	}
	p.meta = p.meta[:n]
	for i := range p.owners {
		b := &p.owners[i]
		b.idxs, b.req = b.idxs[:0], b.req[:0]
	}
	// An op is checked before it is rendered: one malformed key must fail
	// its own operation, not desynchronize a whole connection.
	for i := range p.ops {
		o := &p.ops[i]
		p.meta[i] = rmeta{err: o.check()}
		if p.meta[i].err != nil {
			continue
		}
		b := &p.owners[p.c.owner(o.key)]
		b.idxs = append(b.idxs, int32(i))
		b.req = o.render(b.req)
	}
	for i := range p.owners {
		if b := &p.owners[i]; len(b.idxs) > 0 {
			b.x = p.c.peers[i].Start(b.req, len(b.idxs))
		}
	}
	for i := range p.owners {
		b := &p.owners[i]
		if len(b.idxs) == 0 {
			continue
		}
		// An exchange shows replies from one attempt only, so the got
		// replies seen before a failure stand and the rest take the error.
		got := 0
		err := b.x.Finish(func(k int, r *proto.Resp) {
			p.record(int(b.idxs[k]), r)
			got = k + 1
		})
		for _, oi := range b.idxs[got:] {
			p.meta[oi].err = transportErr(err)
		}
		if cap(b.req) > maxRetainedReq {
			b.req = nil
		}
	}
	// Materialize arena views only now: every owner has replied, the arena
	// has stopped growing, the intervals cannot dangle.
	if cap(p.results) < n {
		p.results = make([]Result, n)
	}
	p.results = p.results[:n]
	for i := range p.results {
		m := &p.meta[i]
		r := Result{Flags: m.flags, CAS: m.cas, Number: m.number, Err: m.err}
		if m.hasVal {
			r.Value = p.arena[m.valOff:m.valEnd]
		}
		p.results[i] = r
	}
	p.ops = p.ops[:0]
	return p.results, nil
}

// record maps one reply onto one operation's meta, copying any value bytes
// into the pipeline arena (the reply's views die at the next reply on the
// same connection).
func (p *Pipeline) record(i int, r *proto.Resp) {
	m := &p.meta[i]
	verb := p.ops[i].verb
	if m.err = replyErr(verb, r); m.err != nil {
		return
	}
	switch verb {
	case proto.VerbGet, proto.VerbGets:
		v := r.Values[0]
		m.valOff = len(p.arena)
		p.arena = append(p.arena, v.Data...)
		m.valEnd = len(p.arena)
		m.hasVal = true
		m.flags = v.Flags
		m.cas = v.CAS
	case proto.VerbIncr, proto.VerbDecr:
		m.number = r.Number
	}
}
