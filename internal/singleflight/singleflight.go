// Package singleflight suppresses duplicate concurrent work: when N callers
// ask for the same key while one call is already in flight, the late callers
// wait for the leader's result instead of repeating the work. This is the
// thundering-herd guard on the backend miss-fill path (backend.FetchShared):
// N concurrent GET misses of one key cost one backend fetch, not N — on the
// owner too, when the misses arrive as forwarded reads from its peers.
//
// The design follows the well-known golang.org/x/sync/singleflight shape,
// reimplemented here so the repository stays dependency-free, and generic
// over the result so a shared outcome is not boxed. Results are shared by
// value: a T that holds references must be treated as immutable.
package singleflight

import "sync"

// call is one in-flight (or completed) unit of work.
type call[T any] struct {
	wg  sync.WaitGroup
	val T
	err error
	// dups counts the callers that joined after the leader.
	dups int
}

// Group dedupes function calls by key. The zero value is ready to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

// Do runs fn once per key among concurrent callers: the first caller (the
// leader) executes fn; callers arriving while it runs block and receive the
// leader's result. shared reports whether the result was delivered to more
// than one caller. Sequential calls (no overlap) each run fn.
func (g *Group[T]) Do(key string, fn func() (T, error)) (v T, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[T])
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &call[T]{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	shared = c.dups > 0
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err, shared
}
