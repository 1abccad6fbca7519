package mem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryConstructionLint is a vet-style source lint: the concrete
// scheduler and row-policy types may be constructed only by the name
// lookups NewScheduler / NewRowPolicy (and tests). Production code
// everywhere else must go through them, so a name is never bypassed — that
// is what keeps the composition config-driven.
func TestRegistryConstructionLint(t *testing.T) {
	// Restricted composite-literal type names → the production files
	// allowed to construct them (relative to the package directory).
	cases := []struct {
		dir        string
		allowed    map[string]bool
		restricted map[string]bool
	}{
		{
			dir:     ".",
			allowed: map[string]bool{"registry.go": true, "rowpolicy.go": true},
			restricted: map[string]bool{
				"frfcfsCap": true, "frfcfs": true, "fcfs": true,
				"timeoutPolicy": true, "openPagePolicy": true,
				"closedPagePolicy": true, "hitCountPolicy": true,
			},
		},
	}
	for _, tc := range cases {
		entries, err := os.ReadDir(tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
				tc.allowed[name] {
				continue
			}
			path := filepath.Join(tc.dir, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if id, ok := lit.Type.(*ast.Ident); ok && tc.restricted[id.Name] {
					t.Errorf("%s: direct construction of %s bypasses the name lookup (use NewScheduler / NewRowPolicy)",
						fset.Position(lit.Pos()), id.Name)
				}
				return true
			})
		}
	}
}
