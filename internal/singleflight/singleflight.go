// Package singleflight suppresses duplicate concurrent work: when N callers
// ask for the same key while one call is already in flight, the late callers
// wait for the leader's result instead of repeating the work. This is the
// thundering-herd guard on the backend miss-fill path (backend.FetchSharedErr):
// N concurrent GET misses of one key cost one backend fetch, not N — on the
// owner too, when the misses arrive as forwarded reads from its peers.
//
// The design follows the well-known golang.org/x/sync/singleflight shape,
// reimplemented here so the repository stays dependency-free. Results are
// shared by reference: callers must treat a shared value as immutable.
package singleflight

import "sync"

// call is one in-flight (or completed) unit of work.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
	// dups counts the callers that joined after the leader.
	dups int
}

// Group dedupes function calls by key. The zero value is ready to use.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// Do runs fn once per key among concurrent callers: the first caller (the
// leader) executes fn; callers arriving while it runs block and receive the
// leader's result. shared reports whether the result was delivered to more
// than one caller. Sequential calls (no overlap) each run fn.
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &call{}
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
