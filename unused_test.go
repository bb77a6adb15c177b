package autonosql

import (
	"go/ast"
	"path"
	"sort"
	"strings"
	"testing"
)

// TestNoUnusedUnexported keeps dead code from piling up. Every unexported
// function and method declared in non-test code outside bench/ must be
// referenced by name somewhere in its package, tests included: one that
// nothing calls or passes around is code a reader pays for and nothing runs.
//
// An unexported name can only be used inside its own package, so a use
// matches by package and name, which may credit a method used on another type
// of the same package; that can let an unused function through but never
// fails one that is used. A use is any identifier with the name other than a
// declaration's own, so a method named in an interface counts as used.
// init and main are called by the runtime.
func TestNoUnusedUnexported(t *testing.T) {
	fset, files := parseModule(t, true)
	total := 0
	var unused []string
	for dir, pkgFiles := range files {
		declared := map[string][]string{} // name -> "Recv.name" or "name" declaring it
		decls := map[*ast.Ident]bool{}
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.IsExported() || fn.Name.Name == "init" || fn.Name.Name == "main" || fn.Name.Name == "_" {
					continue
				}
				decls[fn.Name] = true
				if strings.HasSuffix(fset.Position(f.FileStart).Filename, "_test.go") {
					continue // test helpers are out of scope
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					name = recvName(fn.Recv.List[0].Type) + "." + name
				}
				declared[fn.Name.Name] = append(declared[fn.Name.Name], name)
			}
		}
		used := map[string]bool{}
		for _, f := range pkgFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					used[id.Name] = true
				}
				return true
			})
		}
		for name, ds := range declared {
			total += len(ds)
			if !used[name] {
				for _, d := range ds {
					unused = append(unused, path.Join("autonosql", dir)+"."+d)
				}
			}
		}
	}
	sort.Strings(unused)
	t.Logf("%d unexported functions and methods in %d packages", total, len(files))
	if len(unused) > 0 {
		t.Errorf("%d unexported functions and methods are never referenced; delete them:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
