package main

// Spans for the traced run. A span is (id, parent, request, name, start, end);
// every span is aggregated by name, and the spans of one request in 64 are
// also kept raw and written out when the run ends. A layer's self time is its
// spans' time minus the time of the spans they caused. No pamakv/internal
// import: the decorators that open spans live in inproc.go.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a span; the names are the ones ISSUE 14 fixes.
type spanKind uint8

const (
	spanNone spanKind = iota
	spanRequest
	spanStoreGet
	spanStoreSet
	spanStoreDelete
	spanMakeRoom
	spanOnWindow
	spanRecordBatch
	spanOnInsert
	spanOnEvict
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"", "request", "store.get", "store.set", "store.delete",
	"core.make_room", "core.on_window", "core.record_batch", "core.on_insert", "core.on_evict",
}

// rawSpan is one line of trace-<workload>.jsonl.
type rawSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanAgg sums the spans of one kind. children is time spent in spans these
// caused; orphan is time of spans with no parent (the engines' background
// maintainers call the policy outside any request), kept out of total so that
// self times add up to the request time.
type spanAgg struct {
	count, total, children, orphan atomic.Int64
}

// sampleRequests: one request in this many keeps its raw spans.
const sampleRequests = 64

// ref names an open span: its id and kind in one word, so the store
// decorator can publish it with one atomic store.
type ref uint64

func mkRef(id uint64, k spanKind) ref { return ref(id<<8 | uint64(k)) }
func (r ref) id() uint64              { return uint64(r) >> 8 }
func (r ref) kind() spanKind          { return spanKind(r & 0xff) }

// tracer collects spans. The traced pass drives one client connection, so at
// most one request and one store call are open at a time and a span's parent
// is never ambiguous; cur and sampled publish them to the policy decorators,
// which run on server goroutines.
type tracer struct {
	epoch   time.Time
	agg     [numSpanKinds]spanAgg
	on      atomic.Bool // spans that end while this is unset are dropped: warm-up is not traced
	nextID  atomic.Uint64
	req     atomic.Uint64 // ref of the open request, 0 if none
	cur     atomic.Uint64 // ref of the open store span, 0 if none
	sampled atomic.Uint64 // id of the open request when its raw spans are kept, else 0
	request uint64        // requests begun; touched by the client goroutine only
	hits    atomic.Int64  // hits handed to RecordBatch

	mu  sync.Mutex
	raw []rawSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its reference and start time.
func (t *tracer) begin(k spanKind) (ref, time.Time) {
	return mkRef(t.nextID.Add(1), k), time.Now()
}

// end closes a span: aggregates it, charges it to its parent, and keeps it
// raw when the open request is a sampled one.
func (t *tracer) end(r, parent ref, start time.Time) { t.endAt(r, parent, start, time.Now()) }

func (t *tracer) endAt(r, parent ref, start, now time.Time) {
	if !t.on.Load() {
		return
	}
	d := int64(now.Sub(start))
	a := &t.agg[r.kind()]
	a.count.Add(1)
	if parent == 0 && r.kind() != spanRequest {
		a.orphan.Add(d)
	} else {
		a.total.Add(d)
		if parent != 0 {
			t.agg[parent.kind()].children.Add(d)
		}
	}
	if req := t.sampled.Load(); req != 0 && (parent != 0 || r.kind() == spanRequest) {
		s := rawSpan{
			ID: r.id(), Parent: parent.id(), Request: req, Name: spanNames[r.kind()],
			Start: int64(start.Sub(t.epoch)), End: int64(now.Sub(t.epoch)),
		}
		t.mu.Lock()
		t.raw = append(t.raw, s)
		t.mu.Unlock()
	}
}

// beginRequest opens the root span of one client round trip.
func (t *tracer) beginRequest() (ref, time.Time) {
	r, start := t.begin(spanRequest)
	t.req.Store(uint64(r))
	t.request++
	if t.request%sampleRequests == 0 {
		t.sampled.Store(r.id())
	}
	return r, start
}

func (t *tracer) endRequest(r ref, start time.Time) {
	t.end(r, 0, start)
	t.req.Store(0)
	t.sampled.Store(0)
}

// self is the time of kind k not spent in spans it caused.
func (t *tracer) self(k spanKind) int64 {
	return t.agg[k].total.Load() - t.agg[k].children.Load()
}

func (t *tracer) mean(k spanKind) float64 {
	return ratio(float64(t.agg[k].total.Load()+t.agg[k].orphan.Load()), float64(t.agg[k].count.Load()))
}

// selfSumShare is the sum of every kind's self time over the request total:
// 1 when every span is inside the request that caused it.
func (t *tracer) selfSumShare() float64 {
	sum := int64(0)
	for k := spanRequest; k < numSpanKinds; k++ {
		if s := t.self(k); s > 0 {
			sum += s
		}
	}
	return ratio(float64(sum), float64(t.agg[spanRequest].total.Load()))
}

// writeRaw writes the raw spans to <root>/benchmark/out/trace-<name>.jsonl.
func (t *tracer) writeRaw(root, name string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close() // closed again below; the second close is harmless
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.raw {
		if err := enc.Encode(&t.raw[i]); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
