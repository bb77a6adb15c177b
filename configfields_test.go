package autonosql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// configFieldExempt lists internal config fields no program sets that stay
// on purpose, with the reason.
var configFieldExempt = map[string]string{
	"internal/monitor.Config.WindowSampleSize": "the benchmark reads it to size its windowed-stat probe; it goes with the estimator-window work on the roadmap",
}

// configType is one struct type named *Config declared under internal/.
type configType struct {
	dir, name string
	fields    []string
}

// TestEveryConfigFieldIsSet keeps knobs from coming back. Every field of
// every struct type named *Config in the non-test files under internal/ must
// be written by non-test code (the root package, cmd/, internal/, bench/)
// somewhere other than its own package's Default* functions. A field only
// its defaults set is a constant wearing a knob's clothes.
//
// A write is a composite-literal key or an assignment to a selector (or its
// address taken). Selector writes and keys of literals whose type is elided
// match by field name alone, which may credit a field written on another
// type; that can let a knob through but never fails a field that is set. Two writes do not count: one inside a Default*
// function of the config's package, unless the value is that function's
// parameter (the caller then sets it), and a fill-in, an assignment inside
// an if whose condition tests the same selector, which only replaces a zero.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package dir -> non-test files
	for _, root := range []string{".", "cmd", "internal", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != root && (root == "." || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
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
	}

	// The config types and, per field, whether a counted write was seen.
	var types []*configType
	byKey := map[string]*configType{} // "dir.Name"
	for dir, pkgFiles := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range pkgFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Config") {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				ct := &configType{dir: dir, name: ts.Name.Name}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						ct.fields = append(ct.fields, id.Name)
					}
					if len(fld.Names) == 0 {
						ct.fields = append(ct.fields, embeddedName(fld.Type))
					}
				}
				types = append(types, ct)
				byKey[dir+"."+ct.name] = ct
				return true
			})
		}
	}
	set := map[string]bool{} // "dir.Type.Field"

	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			imports := map[string]string{} // local name -> module-relative dir
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				rel, ok := strings.CutPrefix(p, "autonosql/")
				if !ok {
					continue
				}
				name := path.Base(rel)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = rel
			}
			// resolve names the config type a type expression denotes.
			resolve := func(e ast.Expr) *configType {
				switch e := e.(type) {
				case *ast.Ident:
					return byKey[dir+"."+e.Name]
				case *ast.SelectorExpr:
					if pkg, ok := e.X.(*ast.Ident); ok {
						return byKey[imports[pkg.Name]+"."+e.Sel.Name]
					}
				}
				return nil
			}
			for _, decl := range f.Decls {
				w := configWrites{dir: dir, types: types, set: set, resolve: resolve, fillIns: map[ast.Node]bool{}}
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Default") {
					w.inDefault = true
					w.params = map[string]bool{}
					for _, p := range fd.Type.Params.List {
						for _, id := range p.Names {
							w.params[id.Name] = true
						}
					}
				}
				w.walk(decl)
			}
		}
	}

	total := 0
	var unset []string
	for _, ct := range types {
		total += len(ct.fields)
		for _, fld := range ct.fields {
			key := ct.dir + "." + ct.name + "." + fld
			if !set[key] && configFieldExempt[key] == "" {
				unset = append(unset, key)
			}
		}
	}
	sort.Strings(unset)
	t.Logf("%d settable fields in %d internal Config types", total, len(types))
	for key := range configFieldExempt {
		if set[key] {
			t.Errorf("%s is exempt but set: drop the exemption", key)
		}
	}
	if len(unset) > 0 {
		t.Errorf("%d internal config fields are set only by their defaults; make each a constant:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// configWrites records the config-field writes in one top-level declaration.
type configWrites struct {
	dir       string
	types     []*configType
	set       map[string]bool
	resolve   func(ast.Expr) *configType
	inDefault bool
	params    map[string]bool
	fillIns   map[ast.Node]bool
}

func (w *configWrites) walk(decl ast.Decl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			tested := map[string]bool{}
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if sel, ok := c.(*ast.SelectorExpr); ok {
					tested[exprString(sel)] = true
				}
				return true
			})
			for _, st := range n.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && tested[exprString(as.Lhs[0])] {
					w.fillIns[as] = true
				}
			}
		case *ast.CompositeLit:
			w.literal(n)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE || w.fillIns[n] {
				return true
			}
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				w.selector(lhs, rhs)
			}
		case *ast.IncDecStmt:
			w.selector(n.X, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				w.selector(n.X, nil)
			}
		}
		return true
	})
}

// literal credits the fields a composite literal sets: on its config type,
// or by name when the type is elided (an element of a slice or map literal).
func (w *configWrites) literal(lit *ast.CompositeLit) {
	ct := w.resolve(lit.Type)
	if ct == nil && lit.Type != nil {
		return
	}
	for i, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				w.credit(ct, key.Name, kv.Value)
			}
		} else if ct != nil && i < len(ct.fields) {
			w.credit(ct, ct.fields[i], e)
		}
	}
}

// selector credits an assignment to x.Field by the field's name.
func (w *configWrites) selector(lhs, rhs ast.Expr) {
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		w.credit(nil, sel.Sel.Name, rhs)
	}
}

// credit marks field as set on ct, or on every config type with that field
// when ct is nil, skipping a Default* function's own package unless value is
// one of its parameters.
func (w *configWrites) credit(ct *configType, field string, value ast.Expr) {
	fromCaller := false
	if id, ok := value.(*ast.Ident); ok && w.params[id.Name] {
		fromCaller = true
	}
	for _, c := range w.types {
		if ct != nil && c != ct {
			continue
		}
		if w.inDefault && c.dir == w.dir && !fromCaller {
			continue
		}
		w.set[c.dir+"."+c.name+"."+field] = true
	}
}

func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// exprString spells a selector chain (a.b.c); other expressions spell "".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprString(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}
