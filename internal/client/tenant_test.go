package client_test

import (
	"errors"
	"net"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/client"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/server"
	"pamakv/internal/shard"
	"pamakv/internal/tenant"
)

// startTenantServer runs an in-process server over a two-tenant group (two
// shards per tenant) and returns its address, the group and its members.
func startTenantServer(t *testing.T) (string, *shard.Group, []tenant.Member) {
	t.Helper()
	reg, err := tenant.NewRegistry([]tenant.Config{
		{Name: "alpha"},
		{Name: "beta", SLOClass: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	router, members, err := tenant.NewGroup(reg, cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  3 << 22,
		StoreValues: true,
		WindowLen:   10_000,
	}, 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(router, server.Options{Tenants: reg})
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String(), router, members
}

// TestTenantClientIsolation drives two tenant-scoped clients and one plain
// client at the same bare key and checks that each lands in (and only in)
// its own partition.
func TestTenantClientIsolation(t *testing.T) {
	addr, router, members := startTenantServer(t)

	newc := func(ten string) *client.Client {
		c, err := client.New(client.Config{Addrs: []string{addr}, Tenant: ten})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	alpha, beta, plain := newc("alpha"), newc("beta"), newc("")

	for _, tc := range []struct {
		c   *client.Client
		val string
	}{{alpha, "from-alpha"}, {beta, "from-beta"}, {plain, "from-default"}} {
		if err := tc.c.Set("shared", 0, 0, []byte(tc.val)); err != nil {
			t.Fatalf("set %q: %v", tc.val, err)
		}
	}
	for _, tc := range []struct {
		c    *client.Client
		want string
	}{{alpha, "from-alpha"}, {beta, "from-beta"}, {plain, "from-default"}} {
		it, err := tc.c.Get("shared")
		if err != nil {
			t.Fatalf("get (%s): %v", tc.want, err)
		}
		if string(it.Value) != tc.want {
			t.Fatalf("got %q, want %q", it.Value, tc.want)
		}
	}
	// The qualified key is what the wire carries and what the Item reports.
	if it, _ := alpha.Get("shared"); it.Key != "alpha/shared" {
		t.Fatalf("Item.Key = %q, want alpha/shared", it.Key)
	}
	// Deleting through one tenant must not reach the others.
	if err := alpha.Delete("shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Get("shared"); !errors.Is(err, client.ErrCacheMiss) {
		t.Fatalf("alpha still sees deleted key: %v", err)
	}
	if _, err := beta.Get("shared"); err != nil {
		t.Fatalf("beta lost its key to alpha's delete: %v", err)
	}

	// Pipelines qualify at queue time, so batches land in the right tenant
	// too.
	p := beta.Pipeline()
	p.Set("pk", 0, 0, []byte("pv"))
	p.Get("pk")
	res, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("pipeline errs: %v %v", res[0].Err, res[1].Err)
	}
	if string(res[1].Value) != "pv" {
		t.Fatalf("pipeline get = %q", res[1].Value)
	}
	if _, err := alpha.Get("pk"); !errors.Is(err, client.ErrCacheMiss) {
		t.Fatalf("alpha sees beta's pipelined key: %v", err)
	}

	// The per-tenant snapshots attribute items where the clients put them.
	arb, err := tenant.NewArbiter(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range arb.Snapshots() {
		switch sn.Name {
		case "beta":
			if sn.Items != 2 {
				t.Fatalf("beta items = %d, want 2", sn.Items)
			}
		case "alpha":
			if sn.Items != 0 {
				t.Fatalf("alpha items = %d, want 0", sn.Items)
			}
		}
	}
	if err := router.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tenant.CheckIsolation(members); err != nil {
		t.Fatal(err)
	}
}

// TestTenantClientValidation pins the constructor's tenant-name checks.
func TestTenantClientValidation(t *testing.T) {
	if _, err := client.New(client.Config{Addrs: []string{"x:1"}, Tenant: "a/b"}); err == nil {
		t.Fatal("tenant name with separator accepted")
	}
	if _, err := client.New(client.Config{Addrs: []string{"x:1"}, Tenant: "bad name"}); err == nil {
		t.Fatal("tenant name with space accepted")
	}
}
