package main

// Live mode: poll a pama-server admin endpoint and turn cumulative /statsz
// counters into windowed rows, the same shape as the simulator's per-window
// TSV (hit ratio per window of served GETs) but measured off a real socket.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pamakv/internal/server"
	"pamakv/internal/tenant"
)

// Reconnect tuning: a failed poll is retried with exponential backoff from
// reconnectBase, capped at reconnectCap, for at most reconnectAttempts
// consecutive failures before the poller gives up. Vars, not consts, so
// tests can shrink the waits.
var (
	reconnectBase = 500 * time.Millisecond
	reconnectCap  = 15 * time.Second
)

const reconnectAttempts = 8

// fetchStatsz GETs and decodes one /statsz document.
func fetchStatsz(client *http.Client, url string) (server.Statsz, error) {
	var doc server.Statsz
	resp, err := client.Get(url)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("decoding %s: %w", url, err)
	}
	return doc, nil
}

// runLive polls addr's /statsz every interval and prints one delta row per
// window. samples > 0 stops after that many rows; otherwise it runs until
// the poll fails (e.g. the server went away) or the process is interrupted.
func runLive(w io.Writer, addr string, interval time.Duration, samples int) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimSuffix(base, "/") + "/statsz"
	client := &http.Client{Timeout: 30 * time.Second}

	prev, err := fetchStatsz(client, url)
	if err != nil {
		return err
	}
	prevT := time.Now()
	fmt.Fprintf(w, "# %s  policy=%s  items=%d  shards' slabs=%v\n",
		url, prev.Policy, prev.Items, prev.Slabs)
	fmt.Fprintf(w, "%10s %10s %8s %8s %10s %12s %12s %6s %11s\n",
		"gets/s", "sets/s", "hit%", "evic/s", "items", "p99get(ms)", "migrations", "gc", "pen(ms)/get")

	for n := 0; samples <= 0 || n < samples; n++ {
		time.Sleep(interval)
		cur, err := fetchStatsz(client, url)
		if err != nil {
			cur, err = reconnect(w, client, url, err)
			if err != nil {
				return err
			}
			// The server may have restarted and reset its counters: the
			// first poll after a reconnect is a fresh baseline, not a
			// window (a delta across the gap would be garbage or would
			// underflow).
			prev, prevT = cur, time.Now()
			n--
			continue
		}
		now := time.Now()
		dt := now.Sub(prevT).Seconds()
		if dt <= 0 {
			dt = interval.Seconds()
		}
		dGets := cur.Engine.Gets - prev.Engine.Gets
		dHits := cur.Engine.Hits - prev.Engine.Hits
		dSets := cur.Engine.Sets - prev.Engine.Sets
		dEvic := cur.Engine.Evictions - prev.Engine.Evictions
		hitCell, penCell := "-", "-" // no GET traffic this window: not 0%, just unknown
		if dGets > 0 {
			hitCell = fmt.Sprintf("%.2f", 100*float64(dHits)/float64(dGets))
			// The miss penalty paid per GET, the service time of Fig 6.
			if cur.Backend != nil && prev.Backend != nil {
				dPen := cur.Backend.TotalPenaltySeconds - prev.Backend.TotalPenaltySeconds
				penCell = fmt.Sprintf("%.3f", 1e3*dPen/float64(dGets))
			}
		}
		p99 := 0.0
		if lat, ok := cur.Latencies["get"]; ok {
			p99 = lat.P99 * 1e3 // cumulative, not windowed: quantiles need buckets
		}
		// gc is the server's collector cycles this window: a store path that
		// recycles its value slots keeps it near zero under any SET rate.
		fmt.Fprintf(w, "%10.0f %10.0f %8s %8.0f %10d %12.3f %12d %6d %11s\n",
			float64(dGets)/dt, float64(dSets)/dt, hitCell, float64(dEvic)/dt,
			cur.Items, p99, cur.Engine.SlabMigrations,
			cur.Runtime.GCCycles-prev.Runtime.GCCycles, penCell)
		writeTenantRows(w, prev, cur, dt)
		writeMemberRows(w, prev, cur, dt)
		prev, prevT = cur, now
	}
	return nil
}

// writeTenantRows prints one indented per-tenant delta row under the main
// window row. Servers predating multi-tenancy (or run without -tenants)
// simply have no tenants section in /statsz, and the live view stays the
// single-tenant one — no flag, no error.
func writeTenantRows(w io.Writer, prev, cur server.Statsz, dt float64) {
	if len(cur.Tenants) == 0 {
		return
	}
	prevBy := make(map[string]tenant.Snapshot, len(prev.Tenants))
	for _, sn := range prev.Tenants {
		prevBy[sn.Name] = sn
	}
	for _, sn := range cur.Tenants {
		p := prevBy[sn.Name] // zero value across a restart: row is a baseline
		dGets := sn.Gets - p.Gets
		hitCell := "-"
		if dGets > 0 {
			hitCell = fmt.Sprintf("%.2f", 100*float64(sn.Hits-p.Hits)/float64(dGets))
		}
		fmt.Fprintf(w, "  · %-14s %8.0f/s %6s%% %8d items %4d slabs (res %d, +%d/-%d)\n",
			sn.Name, float64(dGets)/dt, hitCell, sn.Items,
			sn.Slabs, sn.ReserveSlabs, sn.SlabsIn-p.SlabsIn, sn.SlabsOut-p.SlabsOut)
	}
}

// writeMemberRows prints the cluster-membership block under the window
// row: one epoch/handoff summary line plus one row per member with its
// probe state. Older servers (or nodes run without runtime membership)
// have no membership section in /statsz, and the live view simply omits
// the block — no flag, no error.
func writeMemberRows(w io.Writer, prev, cur server.Statsz, dt float64) {
	ms := cur.Membership
	if ms == nil {
		return
	}
	var sentPrev uint64
	if prev.Membership != nil {
		sentPrev = prev.Membership.Handoff.KeysSent
	}
	handoff := "handoff idle"
	if ms.Handoff.Active {
		handoff = "handoff ACTIVE"
	}
	if d := ms.Handoff.KeysSent - sentPrev; d > 0 {
		handoff += fmt.Sprintf(", %.0f keys/s out", float64(d)/dt)
	}
	drain := ""
	if ms.Draining {
		drain = ", DRAINING"
	}
	fmt.Fprintf(w, "  ∘ membership epoch %d, %d members (%s%s)\n",
		ms.Epoch, len(ms.Members), handoff, drain)
	for _, m := range ms.Members {
		detail := ""
		if m.State == "suspect" {
			detail = fmt.Sprintf(" (%d failed probes)", m.ProbeFails)
		}
		fmt.Fprintf(w, "  ∘ %-21s %s%s\n", m.Addr, m.State, detail)
	}
}

// reconnect retries the poll with capped exponential backoff until one
// fetch succeeds, announcing the outage and the recovery in one line each
// (comment-prefixed, so downstream column parsers skip them). It gives up
// with the last error after reconnectAttempts consecutive failures.
func reconnect(w io.Writer, client *http.Client, url string, cause error) (server.Statsz, error) {
	backoff := reconnectBase
	fmt.Fprintf(w, "# poll failed (%v); retrying with backoff up to %v\n", cause, reconnectCap)
	for attempt := 1; ; attempt++ {
		time.Sleep(backoff)
		doc, err := fetchStatsz(client, url)
		if err == nil {
			fmt.Fprintf(w, "# reconnected after %d attempt(s)\n", attempt)
			return doc, nil
		}
		if attempt >= reconnectAttempts {
			return doc, fmt.Errorf("gave up after %d attempts: %w", attempt, err)
		}
		backoff *= 2
		if backoff > reconnectCap {
			backoff = reconnectCap
		}
	}
}
