// Package tenant multiplexes one pamakv process across many applications:
// the "millions of users" scenario where a single arbitrated cache replaces
// N siloed memcached pools (ROADMAP; PAPERS.md: Memshare).
//
// Tenant identity rides in the key namespace: a key "billing/user:17"
// belongs to the registered tenant "billing"; keys without a registered
// prefix belong to the default tenant. Each tenant owns its own cache
// engine(s) — isolation is structural, not bookkeeping — and an Arbiter
// periodically rebalances the slab budget between tenants by comparing
// marginal utilities: each tenant's PAMA incoming-slab value (expected
// penalty saved per window were it granted a slab) against donors'
// outgoing-slab values (penalty lost per window giving one up), weighted by
// the tenants' configured shares, never letting a donor breach its reserve.
//
// See DESIGN.md §13 for the model, the arbiter math, and its invariants, and
// §16 for how a tenant's engines are a range of the server's one shard.Group
// (NewGroup).
package tenant

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Separator splits the tenant prefix from the rest of the key. proto.CheckKey
// enforces at most one separator per key and a non-empty prefix.
const Separator = '/'

// DefaultName names the tenant that owns every key without a registered
// tenant prefix.
const DefaultName = "default"

// MaxSLOClass bounds SLO classes: 0 is the most protected (premium), higher
// classes shed earlier under overload (see overload.AcquireSLO).
const MaxSLOClass = 3

// DefaultSLOClass is the SLO class assigned when a spec omits one.
const DefaultSLOClass = 1

// Config is one tenant's contract.
type Config struct {
	// Name is the key-namespace prefix ("billing" owns "billing/…").
	Name string
	// ReservedBytes is the memory floor the arbiter never takes from this
	// tenant (rounded up to whole slabs, at least one slab per engine).
	ReservedBytes int64
	// Weight scales the tenant's claim on the shared pool: the arbiter
	// compares weight-scaled marginal utilities, and the initial split of
	// unreserved memory is proportional to weight. Defaults to 1.
	Weight float64
	// SLOClass ranks the tenant under overload: class 0 is shed last,
	// class MaxSLOClass first (overload demotes a request's effective
	// penalty subclass by its tenant's SLO class).
	SLOClass int
}

// Registry maps key prefixes to tenant ids. Ids are dense, 0..Len()-1, in
// registration order; the default tenant is always present. Immutable after
// construction, so lookups need no lock.
type Registry struct {
	cfgs      []Config
	byName    map[string]int
	defaultID int
	arb       *Arbiter // set once, before serving; see SetArbiter
}

// NewRegistry validates the configs and builds a registry. A "default"
// entry is appended when absent so untagged keys always have an owner.
func NewRegistry(cfgs []Config) (*Registry, error) {
	r := &Registry{byName: make(map[string]int, len(cfgs)+1), defaultID: -1}
	for _, cfg := range cfgs {
		if err := checkName(cfg.Name); err != nil {
			return nil, err
		}
		if _, dup := r.byName[cfg.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant %q", cfg.Name)
		}
		if cfg.Weight == 0 {
			cfg.Weight = 1
		}
		if cfg.Weight < 0 {
			return nil, fmt.Errorf("tenant: %s: negative weight %g", cfg.Name, cfg.Weight)
		}
		if cfg.ReservedBytes < 0 {
			return nil, fmt.Errorf("tenant: %s: negative reserve %d", cfg.Name, cfg.ReservedBytes)
		}
		if cfg.SLOClass < 0 || cfg.SLOClass > MaxSLOClass {
			return nil, fmt.Errorf("tenant: %s: SLO class %d outside [0,%d]", cfg.Name, cfg.SLOClass, MaxSLOClass)
		}
		if cfg.Name == DefaultName {
			r.defaultID = len(r.cfgs)
		}
		r.byName[cfg.Name] = len(r.cfgs)
		r.cfgs = append(r.cfgs, cfg)
	}
	if r.defaultID < 0 {
		r.defaultID = len(r.cfgs)
		r.byName[DefaultName] = r.defaultID
		r.cfgs = append(r.cfgs, Config{Name: DefaultName, Weight: 1, SLOClass: DefaultSLOClass})
	}
	return r, nil
}

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("tenant: empty tenant name")
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c <= ' ' || c == 0x7f || c == Separator || c == ',' || c == ':' {
			return fmt.Errorf("tenant: name %q contains byte %q", name, c)
		}
	}
	return nil
}

// SetArbiter names the arbiter that balances this registry's tenants, so
// that whoever holds the registry (the server's admin endpoints, through
// Options.Tenants) can report per-tenant accounting (Arbiter.Snapshots).
// Call it before the registry is shared.
func (r *Registry) SetArbiter(a *Arbiter) { r.arb = a }

// Arbiter returns the arbiter given to SetArbiter; nil without one, and on
// a nil registry (a single-tenant server's Options.Tenants).
func (r *Registry) Arbiter() *Arbiter {
	if r == nil {
		return nil
	}
	return r.arb
}

// Len returns the number of tenants, default included.
func (r *Registry) Len() int { return len(r.cfgs) }

// Config returns tenant id's config.
func (r *Registry) Config(id int) Config { return r.cfgs[id] }

// DefaultID returns the default tenant's id.
func (r *Registry) DefaultID() int { return r.defaultID }

// Lookup returns the id of the named tenant.
func (r *Registry) Lookup(name string) (int, bool) {
	id, ok := r.byName[name]
	return id, ok
}

// Resolve returns the id of the tenant owning key: the registered tenant
// named by the prefix before the first separator, or the default tenant
// when the key has no separator or the prefix is not a registered tenant
// (a raw key may legitimately contain the separator byte in binary data).
func (r *Registry) Resolve(key string) int {
	if i := strings.IndexByte(key, Separator); i > 0 {
		if id, ok := r.byName[key[:i]]; ok {
			return id
		}
	}
	return r.defaultID
}

// ResolveBytes is Resolve for byte-slice keys; it does not allocate.
func (r *Registry) ResolveBytes(key []byte) int {
	for i := 1; i < len(key); i++ {
		if key[i] == Separator {
			if id, ok := r.byName[string(key[:i])]; ok {
				return id
			}
			break
		}
	}
	return r.defaultID
}

// SLOOf returns the SLO class of the tenant owning key.
func (r *Registry) SLOOf(key string) int { return r.cfgs[r.Resolve(key)].SLOClass }

// Split separates a key into its tenant prefix and remainder; ok is false
// when the key carries no prefix.
func Split(key string) (prefix, rest string, ok bool) {
	if i := strings.IndexByte(key, Separator); i > 0 {
		return key[:i], key[i+1:], true
	}
	return "", key, false
}

// ParseSpecs parses the -tenants flag syntax: a comma-separated list of
// name[:reservedMiB[:weight[:sloClass]]] entries, e.g.
//
//	billing:64:2:0,search:32:1:1,batch:8:1:2
//
// or @path, a file of them (ParseSpecFile).
func ParseSpecs(s string) ([]Config, error) {
	if strings.HasPrefix(s, "@") {
		return ParseSpecFile(s[1:])
	}
	var cfgs []Config
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		cfg, err := parseSpec(field)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("tenant: empty tenant spec")
	}
	return cfgs, nil
}

// ParseSpecFile parses the file form of -tenants: one spec per line,
// blank lines and #-comments ignored.
func ParseSpecFile(path string) ([]Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cfgs []Config
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cfg, err := parseSpec(text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		cfgs = append(cfgs, cfg)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("tenant: %s defines no tenants", path)
	}
	return cfgs, nil
}

func parseSpec(s string) (Config, error) {
	parts := strings.Split(s, ":")
	if len(parts) > 4 {
		return Config{}, fmt.Errorf("tenant: spec %q has more than 4 fields", s)
	}
	cfg := Config{Name: strings.TrimSpace(parts[0]), Weight: 1, SLOClass: DefaultSLOClass}
	if err := checkName(cfg.Name); err != nil {
		return Config{}, err
	}
	if len(parts) > 1 && parts[1] != "" {
		mib, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || mib < 0 {
			return Config{}, fmt.Errorf("tenant: %s: bad reservedMiB %q", cfg.Name, parts[1])
		}
		cfg.ReservedBytes = int64(mib * (1 << 20))
	}
	if len(parts) > 2 && parts[2] != "" {
		w, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || w <= 0 {
			return Config{}, fmt.Errorf("tenant: %s: bad weight %q", cfg.Name, parts[2])
		}
		cfg.Weight = w
	}
	if len(parts) > 3 && parts[3] != "" {
		slo, err := strconv.Atoi(parts[3])
		if err != nil || slo < 0 || slo > MaxSLOClass {
			return Config{}, fmt.Errorf("tenant: %s: bad SLO class %q", cfg.Name, parts[3])
		}
		cfg.SLOClass = slo
	}
	return cfg, nil
}
