package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/membership"
	"pamakv/internal/obs"
	"pamakv/internal/server"
	"pamakv/internal/tenant"
)

// newLiveEngine builds a small value-storing engine under the PAMA policy.
func newLiveEngine(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  1 << 22,
		StoreValues: true,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stubStatsz serves a /statsz whose counters advance by a fixed step per
// poll, so the delta rows runLive prints are fully predictable.
func stubStatsz(t *testing.T) *httptest.Server {
	t.Helper()
	var polls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/statsz" {
			http.NotFound(w, r)
			return
		}
		n := polls.Add(1) - 1 // 0 on the baseline poll
		hr := 0.75
		doc := server.Statsz{
			Policy:   "pama",
			Items:    int(100 + n),
			HitRatio: &hr,
			Engine: cache.Stats{
				Gets:           1000 * n,
				Hits:           750 * n,
				Misses:         250 * n,
				Sets:           100 * n,
				Evictions:      10 * n,
				SlabMigrations: n,
			},
			Slabs:   []int{3, 2, 1},
			Runtime: server.RuntimeStatsz{GCCycles: 3 * n},
			Backend: &server.BackendStatsz{TotalPenaltySeconds: 0.5 * float64(n)},
			Latencies: map[string]obs.Summary{
				"get": {Count: 1000 * n, Mean: 0.0001, P50: 0.0001, P95: 0.0005, P99: 0.002},
			},
		}
		if err := json.NewEncoder(w).Encode(doc); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestRunLiveRendersDeltas(t *testing.T) {
	ts := stubStatsz(t)
	var buf bytes.Buffer
	if err := runLive(&buf, strings.TrimPrefix(ts.URL, "http://"), time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // banner, header, two windows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "policy=pama") || !strings.Contains(lines[0], "items=100") {
		t.Errorf("banner = %q", lines[0])
	}
	for _, row := range lines[2:] {
		f := strings.Fields(row)
		if len(f) != 9 {
			t.Fatalf("row %q has %d columns, want 9", row, len(f))
		}
		// Each window advances hits by 750 of 1000 gets: hit% is exact
		// regardless of wall-clock jitter in the rates.
		if f[2] != "75.00" {
			t.Errorf("hit%% column = %q, want 75.00", f[2])
		}
		// p99 is rendered in milliseconds: 0.002 s -> 2.000.
		if f[5] != "2.000" {
			t.Errorf("p99 column = %q, want 2.000", f[5])
		}
		// GC cycles are a per-window delta, not the cumulative count.
		if f[7] != "3" {
			t.Errorf("gc column = %q, want 3", f[7])
		}
		// 0.5 s of miss penalty over 1000 gets: 0.5 ms per GET.
		if f[8] != "0.500" {
			t.Errorf("penalty column = %q, want 0.500", f[8])
		}
	}
}

func TestRunLiveNoTrafficWindow(t *testing.T) {
	// A constant document: every window has zero deltas; the hit column
	// must say "-" (unknown), never 0 or NaN.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.Statsz{Policy: "pama"})
	}))
	t.Cleanup(ts.Close)
	var buf bytes.Buffer
	if err := runLive(&buf, ts.URL, time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") {
		t.Fatalf("live output leaks NaN:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if f := strings.Fields(rows[len(rows)-1]); f[2] != "-" || f[8] != "-" {
		t.Errorf("idle window without a backend: hit%% %q, penalty %q, want - and -", f[2], f[8])
	}
}

func TestRunLiveReconnectsAfterOutage(t *testing.T) {
	// Polls 2 and 3 fail; the poller must back off, reconnect, rebase,
	// and keep printing windows — announcing both phases in # lines.
	oldBase, oldCap := reconnectBase, reconnectCap
	reconnectBase, reconnectCap = time.Millisecond, 4*time.Millisecond
	t.Cleanup(func() { reconnectBase, reconnectCap = oldBase, oldCap })

	var polls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := polls.Add(1)
		if n == 2 || n == 3 {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(server.Statsz{Policy: "pama"})
	}))
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	if err := runLive(&buf, ts.URL, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# poll failed") {
		t.Errorf("no outage notice in:\n%s", out)
	}
	if !strings.Contains(out, "# reconnected after 2 attempt(s)") {
		t.Errorf("no reconnect notice in:\n%s", out)
	}
	// Two real windows still rendered: banner, header, 2 notices, 2 rows.
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 6 {
		t.Errorf("got %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestRunLiveGivesUpWhenServerStaysDown(t *testing.T) {
	oldBase, oldCap := reconnectBase, reconnectCap
	reconnectBase, reconnectCap = time.Microsecond, 2*time.Microsecond
	t.Cleanup(func() { reconnectBase, reconnectCap = oldBase, oldCap })

	var polls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if polls.Add(1) == 1 {
			json.NewEncoder(w).Encode(server.Statsz{Policy: "pama"})
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	err := runLive(&buf, ts.URL, time.Millisecond, 3)
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("err = %v, want a give-up error", err)
	}
	// Baseline + the failed poll + reconnectAttempts retries.
	if got := polls.Load(); got != 2+reconnectAttempts {
		t.Errorf("server saw %d polls, want %d", got, 2+reconnectAttempts)
	}
}

func TestRunLiveAgainstRealAdmin(t *testing.T) {
	// Full integration: a real engine behind a real admin handler.
	eng := newLiveEngine(t)
	srv := server.New(eng, server.Options{})
	admin := server.NewAdmin(srv)
	ts := httptest.NewServer(admin.Handler())
	t.Cleanup(ts.Close)

	if err := eng.Set("k", 64, 0.01, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	eng.Get("k", 0, 0, nil)
	var buf bytes.Buffer
	if err := runLive(&buf, ts.URL+"/", time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "policy=") {
		t.Fatalf("no banner in:\n%s", buf.String())
	}
}

// TestRunLiveTenantRows: a /statsz with a tenants section gets one indented
// delta row per tenant under each window; a server without the section (the
// pre-tenant document shape) renders exactly the old single-tenant view.
func TestRunLiveTenantRows(t *testing.T) {
	var polls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := polls.Add(1) - 1
		doc := server.Statsz{
			Policy: "pama",
			Engine: cache.Stats{Gets: 1000 * n, Hits: 500 * n},
			Tenants: []tenant.Snapshot{
				{MemberStats: tenant.MemberStats{Name: "gold", Slabs: 6, ReserveSlabs: 2, SlabsIn: n},
					Gets: 800 * n, Hits: 600 * n, Items: 42},
				{MemberStats: tenant.MemberStats{Name: "bronze", Slabs: 2, ReserveSlabs: 1, SlabsOut: n},
					Gets: 200 * n, Hits: 20 * n, Items: 7},
			},
		}
		json.NewEncoder(w).Encode(doc)
	}))
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	if err := runLive(&buf, ts.URL, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"· gold", "· bronze", "42 items", "(res 2, +1/-0)", "(res 1, +0/-1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tenant view missing %q:\n%s", want, out)
		}
	}
	// Per-tenant hit% is a window delta: gold 600/800, bronze 20/200.
	if !strings.Contains(out, "75.00%") || !strings.Contains(out, "10.00%") {
		t.Fatalf("per-tenant hit ratios wrong:\n%s", out)
	}

	// Fallback: the same poller against a tenantless document — old layout,
	// no tenant rows, no errors.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.Statsz{Policy: "pama"})
	}))
	t.Cleanup(old.Close)
	buf.Reset()
	if err := runLive(&buf, old.URL, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "·") {
		t.Fatalf("tenantless server rendered tenant rows:\n%s", buf.String())
	}
}

// TestRunLiveMemberRows: a /statsz with a membership section gets the
// epoch/handoff summary plus one row per member under each window; a
// membership-less document (older server, or one run without runtime
// membership) renders exactly the old layout — no flag, no error.
func TestRunLiveMemberRows(t *testing.T) {
	var polls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := polls.Add(1) - 1
		doc := server.Statsz{
			Policy: "pama",
			Engine: cache.Stats{Gets: 1000 * n, Hits: 500 * n},
			Membership: &membership.Stats{
				Self:     "127.0.0.1:11311",
				Epoch:    7,
				Draining: true,
				Members: []membership.MemberStatus{
					{Addr: "127.0.0.1:11311", State: "self"},
					{Addr: "127.0.0.1:11312", State: "alive"},
					{Addr: "127.0.0.1:11313", State: "suspect", ProbeFails: 3},
				},
				Handoff: membership.HandoffStats{Active: true, HandoffCounters: membership.HandoffCounters{KeysSent: 500 * n}},
			},
		}
		json.NewEncoder(w).Encode(doc)
	}))
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	if err := runLive(&buf, ts.URL, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"∘ membership epoch 7, 3 members",
		"handoff ACTIVE",
		"keys/s out",
		"DRAINING",
		"127.0.0.1:11311", "self",
		"127.0.0.1:11312", "alive",
		"127.0.0.1:11313", "suspect (3 failed probes)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("member view missing %q:\n%s", want, out)
		}
	}

	// Fallback: a membership-less document — old layout, no member rows,
	// no errors.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.Statsz{Policy: "pama"})
	}))
	t.Cleanup(old.Close)
	buf.Reset()
	if err := runLive(&buf, old.URL, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "∘") {
		t.Fatalf("membership-less server rendered member rows:\n%s", buf.String())
	}
}
