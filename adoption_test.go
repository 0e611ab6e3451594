package b2b_test

import (
	"go/ast"
	"go/types"
	"testing"

	"b2b/internal/analysis"
)

// TestAdoptionSites keeps (*pagestate.Paged).Adopt to the two reviewed call
// sites. Adopting asserts that nobody else references the flat buffer —
// the next Bytes caller receives it to keep and modify — so every site must
// own its buffer outright: objectAdapter.ValidateUpdate gives back the flat
// the application only read, and objectAdapter.ApplyUpdate hands over the
// slice the application returned. The scan type-checks the root package's
// non-test files, so an Adopt method of any other type does not count.
func TestAdoptionSites(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	allowed := map[string]bool{"objectAdapter.ValidateUpdate": true, "objectAdapter.ApplyUpdate": true}
	found := map[string]bool{}
	analysis.InspectFuncs(pkg.Files, func(fd *ast.FuncDecl) {
		site := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			if named := analysis.NamedType(pkg.Info.TypeOf(fd.Recv.List[0].Type)); named != nil {
				site = named.Obj().Name() + "." + site
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pkg.Info, call)
			if fn == nil || fn.Name() != "Adopt" {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !analysis.IsNamed(recv.Type(), "Paged", "pagestate") {
				return true
			}
			if !allowed[site] {
				t.Errorf("%s: %s adopts a flat buffer into a paged state; only %v may", pkg.Fset.Position(call.Pos()), site, allowed)
			}
			found[site] = true
			return true
		})
	})
	for site := range allowed {
		if !found[site] {
			t.Errorf("expected a Paged.Adopt call in %s, found none (scan broken?)", site)
		}
	}
}
