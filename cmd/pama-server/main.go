// Command pama-server runs the cache as a network service speaking the
// Memcached ASCII protocol, with a selectable allocation policy and an
// optional simulated read-through back end that makes miss penalties felt
// in real (scaled) time.
//
// Usage:
//
//	pama-server -addr :11211 -cache 256 -policy pama
//	pama-server -addr :11211 -readthrough -penalty-scale 0.05
//	pama-server -readthrough -fault-err-rate 0.2 -fetch-retries 2 -stale-buffer 1
//	pama-server -addr :11211 -admin-addr 127.0.0.1:11212   # /metrics, /statsz, pprof
//
// Cluster mode — three nodes sharing one key space by consistent hashing,
// each node run with the full member list and itself as -self:
//
//	pama-server -addr :11211 -peers :11211,:11311,:11411 -self :11211
//	pama-server -addr :11311 -peers :11211,:11311,:11411 -self :11311
//	pama-server -addr :11411 -peers :11211,:11311,:11411 -self :11411
//
// With -tenants as well, every node runs the same spec: the ring picks a
// key's owner by the whole key, tenant prefix included, and the owner routes
// it into its tenant's engines, whose arbiter balances that node's budget.
//
// Try it with a plain TCP client:
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc localhost 11211
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/membership"
	"pamakv/internal/overload"
	"pamakv/internal/penalty"
	"pamakv/internal/server"
	"pamakv/internal/shard"
	"pamakv/internal/sim"
	"pamakv/internal/tenant"
	"pamakv/internal/valuetable"
	"pamakv/internal/workload"
)

// options gathers every flag so run stays testable.
type options struct {
	addr         string
	cacheMiB     int64
	policyKind   string
	readthrough  bool
	penaltyScale float64
	shards       int
	snapshot     string
	adminAddr    string

	tenants         string
	arbiterInterval time.Duration

	readTimeout  time.Duration
	writeTimeout time.Duration
	maxConns     int
	maxPipeline  int
	drainTimeout time.Duration

	fetchTimeout time.Duration
	fetchRetries int
	fetchBackoff time.Duration
	staleMiB     int64

	overloadOn  bool
	targetP99   time.Duration
	maxInflight int

	faultErrRate    float64
	faultSpikeRate  float64
	faultSpikeSleep time.Duration
	faultSeed       uint64

	peers string
	self  string

	join          string
	membershipOn  bool
	probeInterval time.Duration
	memSecret     string
}

// validate rejects flag combinations with undefined behavior before any
// resource is built. Kept as a pure function of options so the rules are
// table-testable.
func validate(o options) error {
	switch {
	case o.join != "" && o.peers != "":
		return fmt.Errorf("-join and -peers are mutually exclusive: -join learns the member list from the seed, -peers states it")
	case o.membershipOn && o.peers == "" && o.join == "":
		return fmt.Errorf("-membership requires cluster mode (-peers or -join)")
	case o.memSecret != "" && !o.membershipOn && o.join == "":
		return fmt.Errorf("-membership-secret requires runtime membership (-membership or -join)")
	case strings.ContainsAny(o.memSecret, " \t\r\n"):
		return fmt.Errorf("-membership-secret must not contain whitespace (it rides the control-key wire format as one token)")
	}
	return nil
}

// registerFlags registers every pama-server flag on fs, bound to the
// returned options: main parses os.Args with it, tests a real argv.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:11211", "listen address")
	fs.Int64Var(&o.cacheMiB, "cache", 256, "cache size in MiB")
	fs.StringVar(&o.policyKind, "policy", "pama", "policy: "+strings.Join(sim.SlabKinds(), ", "))
	fs.BoolVar(&o.readthrough, "readthrough", false, "serve GET misses from a simulated back end")
	fs.Float64Var(&o.penaltyScale, "penalty-scale", 0.02, "fraction of the simulated penalty slept in real time (read-through mode)")
	fs.IntVar(&o.shards, "shards", runtime.NumCPU(), "hash shards, per tenant with -tenants (rounded up to a power of two; defaults to the core count)")
	fs.StringVar(&o.snapshot, "snapshot", "", "snapshot file: loaded at startup if present, saved at shutdown (restores into any -shards or -tenants layout)")
	fs.StringVar(&o.adminAddr, "admin-addr", "", "HTTP observability listener (/metrics, /statsz, /debug/pprof); empty disables")
	fs.StringVar(&o.tenants, "tenants", "", `multi-tenant mode: comma-separated specs "name[:reservedMiB[:weight[:sloClass]]]", or @path to a spec file; keys route by "tenant/" prefix`)
	fs.DurationVar(&o.arbiterInterval, "arbiter-interval", 2*time.Second, "period of the tenant slab arbiter (with -tenants; 0 freezes the initial split)")

	fs.DurationVar(&o.readTimeout, "read-timeout", 5*time.Minute, "per-connection idle deadline (0 = none)")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second, "per-flush write deadline (0 = none)")
	fs.IntVar(&o.maxConns, "max-conns", 1024, "max concurrent connections; excess dials wait in the kernel backlog (0 = unlimited)")
	fs.IntVar(&o.maxPipeline, "max-pipeline", server.DefaultMaxPipeline, "max pipelined requests served per response flush")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", server.DefaultDrainTimeout, "graceful-shutdown drain window before force-closing connections")

	fs.DurationVar(&o.fetchTimeout, "fetch-timeout", 0, "per-attempt backend fetch deadline in read-through mode (0 = none)")
	fs.IntVar(&o.fetchRetries, "fetch-retries", 0, "extra attempts for a failed backend fetch")
	fs.DurationVar(&o.fetchBackoff, "fetch-backoff", 2*time.Millisecond, "sleep before the first fetch retry; doubles per retry")
	fs.Int64Var(&o.staleMiB, "stale-buffer", 0, "serve recently evicted/expired values from a buffer of this many MiB, shared by every engine, when the backend fails (read-through mode; 0 = off)")

	fs.BoolVar(&o.overloadOn, "overload", false, "penalty-aware admission control: adaptive concurrency limit, bounded queue, load shedding by penalty subclass")
	fs.DurationVar(&o.targetP99, "target-p99", overload.DefaultTarget, "p99 service-latency target the adaptive concurrency limit steers toward (with -overload)")
	fs.IntVar(&o.maxInflight, "max-inflight", overload.DefaultMaxInflight, "hard ceiling on concurrently admitted requests (with -overload)")

	fs.Float64Var(&o.faultErrRate, "fault-err-rate", 0, "inject backend fetch failures at this rate [0,1] (read-through mode)")
	fs.Float64Var(&o.faultSpikeRate, "fault-spike-rate", 0, "inject backend latency spikes at this rate [0,1]")
	fs.DurationVar(&o.faultSpikeSleep, "fault-spike-sleep", 50*time.Millisecond, "extra latency per injected spike")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "deterministic seed for fault injection draws")

	fs.StringVar(&o.peers, "peers", "", "comma-separated cluster member list (enables cluster mode; must include -self)")
	fs.StringVar(&o.self, "self", "", "this node's address as it appears in -peers (defaults to -addr)")

	fs.StringVar(&o.join, "join", "", "join a live cluster via this seed member's data address (runtime membership; mutually exclusive with -peers)")
	fs.BoolVar(&o.membershipOn, "membership", false, "enable runtime membership (health probes, auto-eviction, warm handoff) on a static -peers cluster; implied by -join")
	fs.DurationVar(&o.probeInterval, "probe-interval", membership.DefaultProbeInterval, "health-probe cadence for runtime membership (<0 disables probing)")
	fs.StringVar(&o.memSecret, "membership-secret", "", "shared token gating the mutating membership control keys (apply/join); must match on every member — see the membership trust model")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(*o); err != nil {
		fmt.Fprintln(os.Stderr, "pama-server:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if err := validate(o); err != nil {
		return err
	}
	if pol, err := (sim.PolicySpec{Kind: o.policyKind}).Build(); err != nil {
		return err // validate the kind before building per-shard copies
	} else if pol == nil {
		return fmt.Errorf("policy %q is a simulator-only engine, not a slab policy", o.policyKind)
	}
	cfg := cache.Config{
		CacheBytes:  o.cacheMiB << 20,
		StoreValues: true,
		WindowLen:   100_000,
	}
	if o.staleMiB > 0 {
		cfg.Stale = valuetable.New(o.staleMiB<<20, 0)
	}
	factory := func() cache.Policy {
		p, _ := (sim.PolicySpec{Kind: o.policyKind}).Build()
		return p
	}
	// One path builds the store: a group of engines behind one route. A
	// tenant is a range of shards, a single engine a one-shard group.
	var reg *tenant.Registry
	var g *shard.Group
	if o.tenants != "" {
		specs, err := tenant.ParseSpecs(o.tenants)
		if err != nil {
			return err
		}
		if reg, err = tenant.NewRegistry(specs); err != nil {
			return err
		}
		var members []tenant.Member
		if g, members, err = tenant.NewGroup(reg, cfg, o.shards, factory); err != nil {
			return err
		}
		arb, err := tenant.NewArbiter(members)
		if err != nil {
			return err
		}
		reg.SetArbiter(arb)
		for id, ms := range arb.Stats().Members {
			// Fewer shards than -shards: the tenant's share could not
			// give every shard a slab.
			log.Printf("pama-server: tenant %s: %d slabs over %d shard(s) (reserve %d slabs, weight %g, slo %d)",
				ms.Name, ms.Slabs, len(members[id].Engines), ms.ReserveSlabs, ms.Weight, ms.SLOClass)
		}
		if o.arbiterInterval > 0 {
			arb.Start(o.arbiterInterval)
			defer arb.Stop()
		}
	} else {
		var err error
		if g, err = shard.New(cfg, o.shards, factory); err != nil {
			return err
		}
	}
	if o.snapshot != "" {
		loaded, err := g.LoadSnapshotFile(o.snapshot)
		if err != nil {
			// A corrupt or truncated snapshot is refused outright:
			// better to start cold than to serve a partial data set.
			return fmt.Errorf("loading snapshot: %w", err)
		}
		if loaded {
			log.Printf("pama-server: restored %d items from %s", g.Items(), o.snapshot)
		}
	}
	opts := server.Options{
		Tenants:      reg,
		Logger:       log.New(os.Stderr, "pama-server: ", log.LstdFlags),
		ReadTimeout:  o.readTimeout,
		WriteTimeout: o.writeTimeout,
		MaxConns:     o.maxConns,
		MaxPipeline:  o.maxPipeline,
		DrainTimeout: o.drainTimeout,
		FetchTimeout: o.fetchTimeout,
		FetchRetries: o.fetchRetries,
		FetchBackoff: o.fetchBackoff,
	}
	if o.readthrough {
		wcfg := workload.ETC()
		store := backend.NewRealTime(penalty.Default(), wcfg.SizeOf, o.penaltyScale)
		if o.faultErrRate > 0 || o.faultSpikeRate > 0 {
			store.SetFaults(&backend.Faults{
				ErrRate:    o.faultErrRate,
				SpikeRate:  o.faultSpikeRate,
				SpikeSleep: o.faultSpikeSleep,
				Seed:       o.faultSeed,
			})
			log.Printf("pama-server: fault injection on (err %.2f, spike %.2f @ %v, seed %d)",
				o.faultErrRate, o.faultSpikeRate, o.faultSpikeSleep, o.faultSeed)
		}
		opts.Backend = store
	} else if o.staleMiB > 0 || o.fetchRetries > 0 || o.fetchTimeout > 0 {
		log.Printf("pama-server: -stale-buffer/-fetch-* only apply with -readthrough")
	}
	// The controller comes first: the peers, the membership manager and
	// the server each read its tier (nil, overload control off, reads
	// normal).
	var ctrl *overload.Controller
	if o.overloadOn {
		ctrl = overload.New(overload.Config{
			MaxInflight: o.maxInflight,
			Target:      o.targetP99,
		})
		opts.Overload = ctrl
		log.Printf("pama-server: overload control on (target p99 %v, max inflight %d)", o.targetP99, o.maxInflight)
	}
	var peers *cluster.Peers
	var mgr *membership.Manager
	if o.peers != "" || o.join != "" {
		self := o.self
		if self == "" {
			self = o.addr
		}
		var members []string
		if o.join != "" {
			// A joiner bootstraps alone; the seed's view broadcast
			// admits it to the real ring moments after startup.
			members = []string{self}
		} else {
			members = cluster.NormalizeMembers(strings.Split(o.peers, ","))
		}
		// Every setting left out runs on its library default: the peer
		// pools' size, retries and timeouts, and the server's hot cache of
		// forwarded reads (4 MiB, 1 s).
		var err error
		peers, err = cluster.New(cluster.Config{
			Self:    self,
			Members: members,
			Tier:    ctrl.Tier,
		})
		if err != nil {
			return err
		}
		defer peers.Close()
		opts.Cluster = peers
		log.Printf("pama-server: cluster mode, %d members, self=%s", len(members), self)
		if o.membershipOn || o.join != "" {
			mgr, err = membership.New(membership.Config{
				Self:          self,
				Peers:         peers,
				Source:        g,
				Tier:          ctrl.Tier,
				ProbeInterval: o.probeInterval,
				Secret:        o.memSecret,
				Logger:        log.New(os.Stderr, "pama-server: ", log.LstdFlags),
			})
			if err != nil {
				return err
			}
			opts.Membership = mgr
			log.Printf("pama-server: runtime membership on (probe %v)", o.probeInterval)
		}
	}
	srv := server.New(g, opts)
	if mgr != nil {
		mgr.Start()
		if o.join != "" {
			go func() {
				if err := mgr.JoinCluster(o.join, 30*time.Second); err != nil {
					log.Printf("pama-server: %v", err)
					return
				}
				epoch, members := mgr.View()
				log.Printf("pama-server: joined via %s at epoch %d (%d members)", o.join, epoch, len(members))
			}()
		}
	}

	var admin *server.Admin
	if o.adminAddr != "" {
		admin = server.NewAdmin(srv)
		go func() {
			if err := admin.ListenAndServe(o.adminAddr); err != nil {
				log.Printf("pama-server: admin listener: %v", err)
			}
		}()
		log.Printf("pama-server: admin endpoints on http://%s/{metrics,statsz,membershipz,membership/{add,remove,drain},healthz,debug/pprof}", o.adminAddr)
	}

	// Serve returns as soon as shutdown begins; the drain (and snapshot
	// save) happen in the signal goroutine, so the exit path below must
	// wait for it or the process would quit mid-drain.
	var draining atomic.Bool
	shutdownDone := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(shutdownDone)
		<-sigc
		draining.Store(true)
		log.Println("pama-server: draining connections")
		if mgr != nil {
			mgr.Stop()
		}
		if admin != nil {
			admin.Close()
		}
		srv.Shutdown()
		st := srv.Stats()
		log.Printf("pama-server: drained (%d conns served, %d forced closes)", st.Conns, st.ForcedCloses)
		if o.snapshot != "" {
			if err := g.SaveSnapshotFile(o.snapshot); err != nil {
				log.Printf("pama-server: snapshot save failed: %v", err)
			} else {
				log.Printf("pama-server: snapshot saved to %s", o.snapshot)
			}
		}
	}()

	log.Printf("pama-server: %s policy, %d MiB, %d shard(s), listening on %s (readthrough=%v, max-conns=%d)",
		o.policyKind, o.cacheMiB, g.Shards(), o.addr, o.readthrough, o.maxConns)
	err := srv.ListenAndServe(o.addr)
	if draining.Load() {
		<-shutdownDone
	}
	return err
}
