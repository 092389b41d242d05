// Netserver: run the Memcached-protocol server on a loopback port with a
// read-through simulated database, then exercise it with a small client —
// all in one process, so the demo needs no external tooling. The second act
// turns on backend fault injection and shows the server degrading to
// serve-stale instead of missing.
//
//	go run ./examples/netserver
package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"pamakv"
)

func main() {
	c, err := pamakv.New(pamakv.Config{
		CacheBytes:  32 << 20,
		StoreValues: true,
		Stale:       pamakv.NewStaleTable(256 << 10), // retain evicted/expired bytes in a 256 KiB serve-stale buffer
	}, pamakv.NewPAMA(pamakv.DefaultPAMAConfig()))
	if err != nil {
		log.Fatal(err)
	}
	wl := pamakv.ETCWorkload()
	// Penalties are slept at 2% of their simulated value, so an expensive
	// key visibly stalls its first GET.
	db := pamakv.NewRealTimeBackend(wl.Penalty, wl.SizeOf, 0.02)
	srv := pamakv.NewServer(c, pamakv.ServerOptions{
		Backend:      db,
		MaxConns:     64,
		ReadTimeout:  time.Minute,
		FetchTimeout: 2 * time.Second,
		FetchRetries: 2,
		FetchBackoff: 5 * time.Millisecond,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	addr := ln.Addr().String()
	fmt.Printf("pama server listening on %s (read-through, penalties at 2%% real time)\n\n", addr)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(cmd string) {
		if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
			log.Fatal(err)
		}
	}
	recvUntilEnd := func() []string {
		var lines []string
		for {
			l, err := r.ReadString('\n')
			if err != nil {
				log.Fatal(err)
			}
			l = strings.TrimRight(l, "\r\n")
			lines = append(lines, l)
			if l == "END" || l == "STORED" || l == "DELETED" ||
				strings.HasPrefix(l, "VERSION") || strings.HasPrefix(l, "CLIENT_ERROR") {
				return lines
			}
		}
	}

	// A stored value is served instantly.
	send("set motd 0 0 13\r\nhello, pamakv")
	recvUntilEnd()

	timeGet := func(key string) time.Duration {
		start := time.Now()
		send("get " + key)
		recvUntilEnd()
		return time.Since(start)
	}
	fmt.Printf("get motd (cached):          %8s\n", timeGet("motd").Round(time.Microsecond))

	// A cold key is fetched read-through from the simulated database —
	// the first GET pays (2%% of) the key's miss penalty, the second is
	// served from cache.
	cold := "report:2026-q3"
	first := timeGet(cold)
	second := timeGet(cold)
	fmt.Printf("get cold key (read-through): %8s  <- paid the back-end penalty\n", first.Round(time.Microsecond))
	fmt.Printf("get cold key (now cached):   %8s\n\n", second.Round(time.Microsecond))

	// Act two: the database "goes down" (every fetch now fails). A key
	// whose value expired is still answered — from the stale buffer —
	// while a never-seen key is a plain miss.
	db.SetFaults(&pamakv.BackendFaults{ErrRate: 1.0, Seed: 7})
	send("set session:9 0 -1 7\r\nold-val") // expires on arrival
	recvUntilEnd()
	send("get session:9")
	staleLines := recvUntilEnd()
	fmt.Println("backend down, expired key served stale:")
	for _, l := range staleLines {
		fmt.Println("  " + l)
	}
	db.SetFaults(nil) // heal the backend
	fmt.Println()

	send("stats")
	for _, l := range recvUntilEnd() {
		if strings.HasPrefix(l, "STAT get_") || strings.HasPrefix(l, "STAT policy") ||
			strings.HasPrefix(l, "STAT stale_") || strings.HasPrefix(l, "STAT backend_") {
			fmt.Println(l)
		}
	}
}
