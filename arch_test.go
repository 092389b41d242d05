package pamakv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneWireClient keeps the module at one transport: outside tests, only
// internal/cluster/client.go opens a connection to a pamakv server. The
// other two entries talk to foreign servers (pama-iperf's memcached and redis
// drivers) or are self-contained demos. benchmark/ is a module of its own
// whose generator is deliberately independent of internal/.
func TestOneWireClient(t *testing.T) {
	mayDial := func(path string) bool {
		return path == "internal/cluster/client.go" || path == "cmd/pama-iperf/drivers.go" ||
			strings.HasPrefix(path, "examples/")
	}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || mayDial(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
