package pamakv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/proto"
)

// eachSourceFile parses every non-test Go file of the root module
// (benchmark/ is a module of its own) and hands it to fn with its
// slash-separated path.
func eachSourceFile(t *testing.T, fn func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneWireClient keeps the module at one transport: outside tests, only
// internal/cluster/client.go opens a connection to a pamakv server. The
// other two entries are the load generator's hand-rolled baseline drivers
// (pama-iperf's memc-txt and redis protocols, measured beside the client
// under test) or are self-contained demos. benchmark/ is a module of its own
// whose generator is deliberately independent of internal/.
func TestOneWireClient(t *testing.T) {
	mayDial := func(path string) bool {
		return path == "internal/cluster/client.go" || path == "cmd/pama-iperf/drivers.go" ||
			strings.HasPrefix(path, "examples/")
	}
	eachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		if mayDial(path) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "net" && strings.HasPrefix(sel.Sel.Name, "Dial") {
				t.Errorf("%s: net.%s — connections to a server are cluster.Client's job (internal/cluster/client.go)",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// TestOneProtocolVocabulary keeps the protocol's words in internal/proto:
// outside it, a file that handles protocol messages — one that imports the
// codec or the transport — names a request by its proto.Verb and a reply by
// its proto.Status, and renders requests with proto.AppendCommand. It must
// not compare or switch on a verb or status word spelled as a string literal,
// nor spell a request's verb at the head of a literal ("get ", "version\r\n").
// pama-iperf's baseline drivers speak the memc-txt and redis protocols by
// hand on purpose, and the examples are self-contained demos.
func TestOneProtocolVocabulary(t *testing.T) {
	words := make(map[string]bool)
	var verbs []string
	for v := proto.VerbGet; v <= proto.VerbQuit; v++ {
		words[v.String()] = true
		verbs = append(verbs, v.String())
	}
	for st := proto.StatusEnd; st <= proto.StatusNumber; st++ {
		words[st.String()] = true
	}
	speaks := func(f *ast.File) bool {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"pamakv/internal/proto"` || imp.Path.Value == `"pamakv/internal/cluster"` {
				return true
			}
		}
		return false
	}
	word := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		w, err := strconv.Unquote(lit.Value)
		return w, err == nil && words[w]
	}
	eachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		if strings.HasPrefix(path, "internal/proto/") || path == "cmd/pama-iperf/drivers.go" ||
			strings.HasPrefix(path, "examples/") || !speaks(f) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					break
				}
				for _, e := range []ast.Expr{n.X, n.Y} {
					if w, ok := word(e); ok {
						t.Errorf("%s: compares with %q — use its proto.Verb or proto.Status", fset.Position(n.Pos()), w)
					}
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if w, ok := word(e); ok {
						t.Errorf("%s: switches on %q — use its proto.Verb or proto.Status", fset.Position(e.Pos()), w)
					}
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					break
				}
				lit, err := strconv.Unquote(n.Value)
				if err != nil {
					break
				}
				for _, v := range verbs {
					if strings.HasPrefix(lit, v+" ") || strings.HasPrefix(lit, v+"\r\n") {
						t.Errorf("%s: renders %q by hand — use proto.AppendCommand", fset.Position(n.Pos()), lit)
					}
				}
			}
			return true
		})
	})
}

// TestOneReadPath keeps the engine at one read path: every GET hit is applied
// under the engine lock, so outside tests nothing may import the access rings
// (internal/accessbuf survives only for the benchmark module), set the
// deprecated cache.Config.AccessBuffer, or implement or call the method of the
// deprecated cache.BatchRecorder. The two names are read off the frozen
// declarations themselves.
func TestOneReadPath(t *testing.T) {
	field, _ := reflect.TypeOf(cache.Config{}).FieldByName("AccessBuffer")
	method := reflect.TypeOf((*cache.BatchRecorder)(nil)).Elem().Method(0)
	banned := map[string]bool{field.Name: true, method.Name: true}
	eachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		if strings.HasPrefix(path, "internal/accessbuf/") {
			return
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"pamakv/internal/accessbuf"` {
				t.Errorf("%s: imports the access rings — GET hits are applied under the engine lock",
					fset.Position(imp.Pos()))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var name *ast.Ident
			switch n := n.(type) {
			case *ast.SelectorExpr:
				name = n.Sel
			case *ast.FuncDecl:
				if n.Recv != nil {
					name = n.Name
				}
			}
			if name != nil && banned[name.Name] {
				t.Errorf("%s: %s — the deferred read path is gone; hits reach Policy.OnHit",
					fset.Position(name.Pos()), name.Name)
			}
			return true
		})
	})
}

// TestOneKeyRouter keeps the module at one engine set: outside tests only
// the engine (internal/cache) and the group that routes keys to engines
// (internal/shard) implement the store surface — GetWithCAS stands for it,
// every server.Store has one — so a key takes one hop from the socket to
// its engine, and tenants are a route of that group, not a third store. And
// pama-server, which builds the group on one path, never needs to ask its
// store what it is.
func TestOneKeyRouter(t *testing.T) {
	eachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		dir := path[:strings.LastIndex(path, "/")+1]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "GetWithCAS" && dir != "internal/cache/" && dir != "internal/shard/" {
					t.Errorf("%s: a third store implementation — route keys with shard.NewRouted instead",
						fset.Position(n.Pos()))
				}
			case *ast.TypeAssertExpr:
				if path == "cmd/pama-server/main.go" {
					t.Errorf("%s: type assertion — the store is a *shard.Group on every path", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
}

// TestOneKeyedIndex keeps the module at one keyed index and one link list:
// a table of keyed entries is records of a kv.Records store on an lru.List,
// found through a hashtable.Table, as the engines, the mrc shadows and the
// value table are. Outside internal/hashtable no non-test file steps a linear
// probe round a power-of-two table ((i + 1) & mask), and outside internal/lru
// none declares a struct with a pair of list links of its own (prev and
// next, or older and newer). The exceptions, by file and type, with why each
// stays.
func TestOneKeyedIndex(t *testing.T) {
	linkOwners := map[string]string{
		"internal/kv/item.go Item": "the record's Prev and Next are the links internal/lru threads",
		"internal/cache/ghost.go ghostRec": "a ghost is 32 bytes of mapped memory on chained buckets; " +
			"a kv.Item and an index slot would break ghostBytesMax (48 B)",
		"internal/policy/camp.go campEntry": "CAMP's per-ratio queues are a simulator comparator's heap " +
			"entries, never an engine's items",
	}
	isProbeStep := func(e *ast.BinaryExpr) bool {
		p, ok := e.X.(*ast.ParenExpr)
		if e.Op != token.AND || !ok {
			return false
		}
		sum, ok := p.X.(*ast.BinaryExpr)
		if !ok || sum.Op != token.ADD {
			return false
		}
		one, ok := sum.Y.(*ast.BasicLit)
		return ok && one.Value == "1"
	}
	linked := make(map[string]bool)
	eachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		dir := path[:strings.LastIndex(path, "/")+1]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if dir != "internal/hashtable/" && isProbeStep(n) {
					t.Errorf("%s: a linear probe — find keyed entries through a hashtable.Table", fset.Position(n.Pos()))
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || dir == "internal/lru/" {
					break
				}
				fields := make(map[string]bool)
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fields[strings.ToLower(name.Name)] = true
					}
				}
				if !(fields["prev"] && fields["next"] || fields["older"] && fields["newer"]) {
					break
				}
				if owner := path + " " + n.Name.Name; linkOwners[owner] != "" {
					linked[owner] = true
				} else {
					t.Errorf("%s: %s links a list of its own — link kv.Records records on an lru.List",
						fset.Position(n.Pos()), n.Name.Name)
				}
			}
			return true
		})
	})
	for owner := range linkOwners {
		if !linked[owner] {
			t.Errorf("%s no longer links a list of its own: drop its exception", owner)
		}
	}
}

// TestOneRoutePerKey keeps internal/server at one route per key: outside
// tests it hashes a key and resolves its owner only in the chunk router
// (Server.routeChunk), which does both once per key against one view of the
// ring. Every later step of serving the key (dispatch, the hot cache, the
// peer exchange) reads the chunk's routes.
func TestOneRoutePerKey(t *testing.T) {
	routing := map[string]bool{"Owner": true, "OwnerHash": true, "HashString": true, "HashBytes": true}
	eachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		if !strings.HasPrefix(path, "internal/server/") {
			return
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "routeChunk" {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && routing[sel.Sel.Name] {
						t.Errorf("%s: %s outside the chunk router — read the chunk's keyRoute instead",
							fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	})
}
