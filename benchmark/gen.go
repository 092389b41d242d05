package main

// The frozen request generator: random streams, key and value synthesis, and
// the four workload definitions. This file, wire.go and lat.go import no
// pamakv/internal package, so a refactor of internal/workload or
// internal/client cannot change the load a parent commit and a change are
// measured under. A change to anything here is a change of the benchmark and
// needs new baselines.

import (
	"math"
	"sync"
)

// rng is splitmix64: tiny, seedable and identical on every platform.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform draw in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// below returns a uniform draw in [0,n).
func (r *rng) below(n uint32) uint32 { return uint32((r.next() >> 32) * uint64(n) >> 32) }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// zipf maps a uniform draw to a rank in [0,n) with P(rank) ∝ 1/(rank+1)^theta,
// 0 < theta < 1, by the closed form of Gray et al. ("Quickly generating
// billion-record synthetic databases"), the generator YCSB uses.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

var (
	zipfMu    sync.Mutex
	zipfCache = map[[2]uint64]*zipf{}
)

// newZipf memoizes by (n, theta): zeta(n) costs n calls of math.Pow and the
// generator is rebuilt for every set-up repetition.
func newZipf(n uint32, theta float64) *zipf {
	k := [2]uint64{uint64(n), math.Float64bits(theta)}
	zipfMu.Lock()
	defer zipfMu.Unlock()
	if z := zipfCache[k]; z != nil {
		return z
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta)}
	for i := 1; i <= int(n); i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetan)
	zipfCache[k] = z
	return z
}

func (z *zipf) rank(u float64) uint32 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := z.n * math.Pow(z.eta*u-z.eta+1, z.alpha)
	if r >= z.n {
		r = z.n - 1
	}
	return uint32(r)
}

// sizeBand is one row of a value-size table: pct percent of keys have a value
// of size bytes.
type sizeBand struct{ pct, size int }

// sizeOf is the value size of a key: a pure function of the key id.
func sizeOf(bands []sizeBand, id uint32) int {
	u := int(mix64(uint64(id)^0x73697a65) % 100)
	for _, b := range bands {
		if u < b.pct {
			return b.size
		}
		u -= b.pct
	}
	return bands[len(bands)-1].size
}

const (
	valueHeader = 16       // hex key id + hex version
	maxValue    = 16 << 10 // largest value the generator writes
	padWindow   = 1 << 16
)

// pad is fixed pseudo-random filler; a value is its header followed by a
// window of pad chosen by (id, version), so writing and checking a value is a
// copy and a compare, not a hash per byte.
var pad = func() []byte {
	p := make([]byte, padWindow+maxValue)
	r := rng{s: 0x70616d616b76}
	for i := 0; i < len(p); i += 8 {
		x := r.next()
		for j := 0; j < 8; j++ {
			p[i+j] = byte(x >> (8 * j))
		}
	}
	return p
}()

const hexDigits = "0123456789abcdef"

func appendHex8(dst []byte, v uint32) []byte {
	for s := 28; s >= 0; s -= 4 {
		dst = append(dst, hexDigits[(v>>uint(s))&15])
	}
	return dst
}

// appendValue appends the size-byte value of (id, ver).
func appendValue(dst []byte, id, ver uint32, size int) []byte {
	dst = appendHex8(dst, id)
	dst = appendHex8(dst, ver)
	off := mix64(uint64(id)<<32|uint64(ver)) % padWindow
	return append(dst, pad[off:off+uint64(size-valueHeader)]...)
}

// valueMatches reports whether got is the value of (id, ver) at the given
// size. The length and header are always compared; the body only when full.
func valueMatches(got []byte, id, ver uint32, size int, full bool) bool {
	if len(got) != size || size < valueHeader {
		return false
	}
	var hdr [valueHeader]byte
	h := appendHex8(appendHex8(hdr[:0], id), ver)
	if string(got[:valueHeader]) != string(h) {
		return false
	}
	if !full {
		return true
	}
	off := mix64(uint64(id)<<32|uint64(ver)) % padWindow
	return string(got[valueHeader:]) == string(pad[off:off+uint64(size-valueHeader)])
}

// checksum is a 64-bit digest of a reply body, for values the generator did
// not write (the read-through back end's).
func checksum(b []byte) uint64 {
	h := uint64(len(b)) * 0x9e3779b97f4a7c15
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 29
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return mix64(h) | 1 // never 0: 0 means "not seen yet"
}

// valueModel says what a GET may answer, which is what the checker enforces.
type valueModel uint8

const (
	// valuePure: the value is a function of the key and every key is
	// preloaded into a cache that holds them all; a GET must hit.
	valuePure valueModel = iota
	// valueVersioned: a value carries the version of the SET that wrote it;
	// a GET returns the last version this connection wrote, or misses.
	valueVersioned
	// valueLearned: read-through; a GET always hits, with the back end's
	// value (learned from the first reply) or the last value set.
	valueLearned
)

// spec is one workload: the traffic, and the server it is sent to.
type spec struct {
	name string
	why  string

	conns, depth int
	// keys is the hot key space. When partitioned, each connection owns an
	// equal slice of it, so one connection's model of the server's answers
	// is exact; otherwise all connections share all keys.
	keys        uint32
	partitioned bool
	theta       float64 // zipf exponent; 0 is uniform
	rotateEvery uint64  // popularity shifts by one key per this many requests
	coldFrac    float64 // GETs of keys never asked for again
	setFrac     float64
	delFrac     float64
	sizes       []sizeBand
	values      valueModel

	preload   bool // SET every hot key once during set-up
	warmOps   int  // warm-up requests per connection, pipelined at warmDepth
	warmDepth int

	cacheMiB    int
	readthrough bool
	cluster     bool
}

var fixed100 = []sizeBand{{100, 100}}

// The four workloads. ISSUE 14 fixes their shape; the counts that set how
// long set-up takes (keys, warmOps) were calibrated once on the 2-core
// sandbox and are frozen.
var specs = []*spec{
	{
		name:  "get_hot",
		why:   "pipelined GET hits on 10k resident keys: parse, batch loop, engine hit path and access-buffer drains do all the work; reallocation, back end and cluster do none",
		conns: 2, depth: 32,
		keys: 10_000, sizes: fixed100, values: valuePure,
		preload: true, warmOps: 100_000, warmDepth: 32,
		cacheMiB: 64,
	},
	{
		name:  "set_churn",
		why:   "75% SET / 25% GET over a key space 4x the cache: data-block parse, key clone, eviction on every store, MakeRoom and slab migration, so a read-path gain that taxes writes shows",
		conns: 2, depth: 32,
		keys: 1 << 18, partitioned: true, setFrac: 0.75,
		sizes:   []sizeBand{{40, 48}, {25, 100}, {15, 300}, {10, 1000}, {7, 3000}, {3, 10000}},
		values:  valueVersioned,
		preload: true, warmOps: 20_000, warmDepth: 32,
		cacheMiB: 64,
	},
	{
		name:  "etc_readthrough",
		why:   "the paper's ETC stream at depth 1 against a read-through server larger than its cache: the only workload where per-key penalties and PAMA's choices decide hit ratio and service time",
		conns: 2, depth: 1,
		keys: 1 << 20, partitioned: true, theta: 0.99, rotateEvery: 2048,
		coldFrac: 0.01, setFrac: 0.03, delFrac: 0.002,
		sizes:   []sizeBand{{72, 32}, {7, 96}, {5, 192}, {4, 384}, {3, 768}, {3, 1536}, {2, 3072}, {2, 6144}, {2, 12288}},
		values:  valueLearned,
		warmOps: 150_000, warmDepth: 32,
		cacheMiB: 64, readthrough: true,
	},
	{
		name:  "cluster_forward",
		why:   "two nodes, all traffic to one: about half the keys take the peer hop (ring lookup, peer client round trip, hot cache, singleflight) that no other workload touches",
		conns: 2, depth: 16,
		keys: 100_000, theta: 0.99, setFrac: 0.10,
		sizes: fixed100, values: valuePure,
		preload: true, warmOps: 20_000, warmDepth: 16,
		cacheMiB: 64, cluster: true,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

const (
	opGet uint8 = iota
	opSet
	opDelete
)

// op is one request. ver is the version a SET writes (0 for pure values).
type op struct {
	kind uint8
	cold bool
	id   uint32
	ver  uint32
}

// sampleEvery: one reply in this many is compared byte for byte, and one key
// in this many has its read-through value tracked.
const sampleEvery = 16

// stream is one connection's request source and its model of what the server
// must answer. The model is advanced when a reply is checked, never when a
// request is issued, so it stays exact under pipelining.
type stream struct {
	sp      *spec
	conn    uint32
	r       rng
	z       *zipf
	base, n uint32
	clock   uint64
	colds   uint32
	checked uint64

	ver     []uint32 // valueVersioned: last version written, 0 = never
	setVer  []uint32 // valueLearned, sampled keys: last version set, 0 = none
	backend []uint64 // valueLearned, sampled keys: back-end value digest, 0 = unseen
}

func newStream(sp *spec, conn int, seed uint64) *stream {
	s := &stream{sp: sp, conn: uint32(conn), n: sp.keys}
	s.r.s = mix64(seed) ^ mix64(uint64(conn)+0x636f6e6e)
	if sp.partitioned {
		s.n = sp.keys / uint32(sp.conns)
		s.base = s.n * uint32(conn)
	}
	if sp.theta > 0 {
		s.z = newZipf(s.n, sp.theta)
	}
	switch sp.values {
	case valueVersioned:
		s.ver = make([]uint32, s.n)
	case valueLearned:
		s.setVer = make([]uint32, s.n/sampleEvery+1)
		s.backend = make([]uint64, s.n/sampleEvery+1)
	}
	return s
}

// next draws the next request.
func (s *stream) next() op {
	s.clock++
	sp := s.sp
	kind := opGet
	if sp.coldFrac+sp.setFrac+sp.delFrac > 0 {
		u := s.r.float()
		switch {
		case u < sp.coldFrac:
			s.colds++
			return op{kind: opGet, cold: true, id: s.conn<<28 | s.colds}
		case u < sp.coldFrac+sp.setFrac:
			kind = opSet
		case u < sp.coldFrac+sp.setFrac+sp.delFrac:
			kind = opDelete
		}
	}
	var idx uint32
	if s.z != nil {
		idx = s.z.rank(s.r.float())
		if sp.rotateEvery > 0 {
			idx = uint32((uint64(idx) + s.clock/sp.rotateEvery) % uint64(s.n))
		}
	} else {
		idx = s.r.below(s.n)
	}
	o := op{kind: kind, id: s.base + idx}
	if kind == opSet && sp.values != valuePure {
		o.ver = uint32(s.clock)
	}
	return o
}

// preloadOp is the i-th request of the preload pass: one SET per hot key of
// this connection's share.
func (s *stream) preloadOp(i uint32) (op, bool) {
	var id uint32
	if s.sp.partitioned {
		if i >= s.n {
			return op{}, false
		}
		id = s.base + i
	} else {
		id = i*uint32(s.sp.conns) + s.conn
		if id >= s.sp.keys {
			return op{}, false
		}
	}
	s.clock++
	o := op{kind: opSet, id: id}
	if s.sp.values != valuePure {
		o.ver = uint32(s.clock)
	}
	return o, true
}
