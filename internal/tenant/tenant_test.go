package tenant

import (
	"os"
	"path/filepath"
	"testing"
)

func TestNewRegistryDefaults(t *testing.T) {
	r, err := NewRegistry([]Config{
		{Name: "billing", ReservedBytes: 1 << 20, SLOClass: 0},
		{Name: "batch", Weight: 2, SLOClass: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (default auto-appended)", r.Len())
	}
	id, ok := r.Lookup(DefaultName)
	if !ok || id != r.DefaultID() {
		t.Fatalf("default tenant lookup = (%d, %v), DefaultID = %d", id, ok, r.DefaultID())
	}
	if w := r.Config(0).Weight; w != 1 {
		t.Fatalf("zero weight not defaulted to 1, got %g", w)
	}
	if w := r.Config(1).Weight; w != 2 {
		t.Fatalf("explicit weight clobbered, got %g", w)
	}
	// An explicit default entry is kept, not duplicated.
	r2, err := NewRegistry([]Config{{Name: DefaultName, SLOClass: 3}, {Name: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 || r2.Config(r2.DefaultID()).SLOClass != 3 {
		t.Fatalf("explicit default mishandled: len %d, slo %d", r2.Len(), r2.Config(r2.DefaultID()).SLOClass)
	}
}

func TestNewRegistryRejects(t *testing.T) {
	bad := [][]Config{
		{{Name: ""}},
		{{Name: "a/b"}},
		{{Name: "a:b"}},
		{{Name: "a,b"}},
		{{Name: "a b"}},
		{{Name: "dup"}, {Name: "dup"}},
		{{Name: "w", Weight: -1}},
		{{Name: "rsv", ReservedBytes: -1}},
		{{Name: "slo", SLOClass: MaxSLOClass + 1}},
	}
	for _, cfgs := range bad {
		if _, err := NewRegistry(cfgs); err == nil {
			t.Errorf("NewRegistry(%+v) accepted invalid config", cfgs)
		}
	}
}

func TestResolve(t *testing.T) {
	r, err := NewRegistry([]Config{{Name: "billing"}, {Name: "search"}})
	if err != nil {
		t.Fatal(err)
	}
	billing, _ := r.Lookup("billing")
	search, _ := r.Lookup("search")
	def := r.DefaultID()
	cases := []struct {
		key  string
		want int
	}{
		{"billing/user:17", billing},
		{"search/q", search},
		{"billing/", billing}, // empty remainder still routes by prefix
		{"unregistered/x", def},
		{"plainkey", def},
		{"", def},
		{"/leading", def},                      // empty prefix is never a tenant
		{"bill\x2fing-not-a-prefix/wait", def}, // first '/' splits mid-garbage
		{"billing", def},                       // bare name without separator is a plain key
	}
	for _, c := range cases {
		if got := r.Resolve(c.key); got != c.want {
			t.Errorf("Resolve(%q) = %d, want %d", c.key, got, c.want)
		}
		if got := r.ResolveBytes([]byte(c.key)); got != c.want {
			t.Errorf("ResolveBytes(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestSLOOfAndSplit(t *testing.T) {
	r, err := NewRegistry([]Config{{Name: "prem", SLOClass: 0}, {Name: "bulk", SLOClass: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SLOOf("prem/k"); got != 0 {
		t.Fatalf("SLOOf(prem/k) = %d", got)
	}
	if got := r.SLOOf("bulk/k"); got != 3 {
		t.Fatalf("SLOOf(bulk/k) = %d", got)
	}
	if got := r.SLOOf("nobody/k"); got != DefaultSLOClass {
		t.Fatalf("SLOOf(nobody/k) = %d, want default class %d", got, DefaultSLOClass)
	}
	if p, rest, ok := Split("a/b/c"); !ok || p != "a" || rest != "b/c" {
		t.Fatalf("Split(a/b/c) = %q %q %v", p, rest, ok)
	}
	if _, rest, ok := Split("plain"); ok || rest != "plain" {
		t.Fatalf("Split(plain) = ok=%v rest=%q", ok, rest)
	}
	if _, _, ok := Split("/x"); ok {
		t.Fatal("Split(/x) claimed a prefix")
	}
}

func TestParseSpecs(t *testing.T) {
	cfgs, err := ParseSpecs("billing:64:2:0, search:32 ,batch:::2,tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	b := cfgs[0]
	if b.Name != "billing" || b.ReservedBytes != 64<<20 || b.Weight != 2 || b.SLOClass != 0 {
		t.Fatalf("billing parsed as %+v", b)
	}
	if s := cfgs[1]; s.Name != "search" || s.ReservedBytes != 32<<20 || s.Weight != 1 || s.SLOClass != DefaultSLOClass {
		t.Fatalf("search parsed as %+v", s)
	}
	if c := cfgs[2]; c.ReservedBytes != 0 || c.SLOClass != 2 {
		t.Fatalf("batch parsed as %+v", c)
	}
	if c := cfgs[3]; c.Name != "tiny" || c.Weight != 1 {
		t.Fatalf("tiny parsed as %+v", c)
	}
	// Fractional MiB reserves are honoured.
	cfgs, err = ParseSpecs("frac:0.5")
	if err != nil || cfgs[0].ReservedBytes != 1<<19 {
		t.Fatalf("frac parse: %v %+v", err, cfgs)
	}
	for _, bad := range []string{"", " , ", "a:b", "a:-1", "a:1:0", "a:1:1:9", "a:1:1:1:1", "no/slash:1"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", bad)
		}
	}
}

func TestParseSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.conf")
	body := "# comment\n\nbilling:64:2:0\n  search:32\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgs, err := ParseSpecs("@" + path) // the -tenants flag's file form
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Name != "billing" || cfgs[1].Name != "search" {
		t.Fatalf("parsed %+v", cfgs)
	}
	bad := filepath.Join(t.TempDir(), "bad.conf")
	if err := os.WriteFile(bad, []byte("ok:1\nbroken:x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpecFile(bad); err == nil {
		t.Fatal("bad spec file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.conf")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpecFile(empty); err == nil {
		t.Fatal("empty spec file accepted")
	}
	if _, err := ParseSpecFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing spec file accepted")
	}
}
