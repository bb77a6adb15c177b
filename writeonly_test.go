package autonosql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoWriteOnlyFields keeps record-only state from piling up. Every
// unexported struct field declared in non-test code outside bench/ must be
// read somewhere in its package's non-test code: a field that is only ever
// assigned costs memory and a reader's attention and changes nothing.
//
// An unexported field can only be selected inside its own package, so a read
// matches by package and field name, which may credit a field read on another
// type of the same package; that can let a write-only field through but never
// fails one that is read. A read is any selector use except as the target of
// an assignment or an increment, with index expressions stripped off the
// target (x.f[k] = v writes f). A struct type used as a map key counts as
// read in full, because key comparison reads every field. Embedded and blank
// fields are skipped.
func TestNoWriteOnlyFields(t *testing.T) {
	_, files := parseModule(t, false)

	total := 0
	var writeOnly []string
	for dir, pkgFiles := range files {
		fields := map[string][]string{}  // field name -> "Type.field" declaring it
		structs := map[string][]string{} // type name -> its unexported fields
		read := map[string]bool{}        // field name
		for _, f := range pkgFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.Name != "_" && !id.IsExported() {
							fields[id.Name] = append(fields[id.Name], ts.Name.Name+"."+id.Name)
							structs[ts.Name.Name] = append(structs[ts.Name.Name], id.Name)
						}
					}
				}
				return true
			})
		}
		for _, f := range pkgFiles {
			targets := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						targets[assignTarget(lhs)] = true
					}
				case *ast.IncDecStmt:
					targets[assignTarget(n.X)] = true
				case *ast.MapType:
					if key, ok := n.Key.(*ast.Ident); ok {
						for _, name := range structs[key.Name] {
							read[name] = true
						}
					}
				case *ast.SelectorExpr:
					if !targets[n] {
						read[n.Sel.Name] = true
					}
				}
				return true
			})
		}
		for name, decls := range fields {
			total += len(decls)
			if !read[name] {
				for _, d := range decls {
					writeOnly = append(writeOnly, path.Join("autonosql", dir)+"."+d)
				}
			}
		}
	}
	sort.Strings(writeOnly)
	t.Logf("%d unexported struct fields in %d packages", total, len(files))
	if len(writeOnly) > 0 {
		t.Errorf("%d unexported struct fields are written but never read; delete them:\n  %s",
			len(writeOnly), strings.Join(writeOnly, "\n  "))
	}
}

// parseModule parses the module's Go files outside bench/, testdata and
// hidden directories, keyed by package directory; test files are included
// when tests is set.
func parseModule(t *testing.T, tests bool) (*token.FileSet, map[string][]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || (!tests && strings.HasSuffix(p, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// assignTarget strips index and paren expressions off an assignment target,
// so x.f[k] = v names the selector x.f as the field written.
func assignTarget(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}
