//go:build race

package pamakv

// raceEnabled reports that the race detector is active: sync.Pool drops a
// random quarter of Puts under it by design, so the served allocation guards
// (whose straddling data blocks are read into pooled buffers) widen their
// budget.
const raceEnabled = true
