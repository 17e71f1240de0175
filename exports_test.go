package mirage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachedOnlyByTests lists the exported names under internal/ that no
// non-test file names, each with the reason it stays in the library.
// Anything else that no shipped code names belongs in the test files
// of the package whose tests use it.
var reachedOnlyByTests = map[string]string{
	"circuit.FlatDAG.NewFlatTraversal":   "used by circuit and sabre tests",
	"circuit.InversePermutation":         "used by circuit, mirage, sabre and transpile tests",
	"circuit.PermutationMatrix":          "used by circuit, mirage, sabre and transpile tests",
	"gates.CNS":                          "read from source by TestWriteQASMReadsBackOrFails; used by circuit, decompose, gates, mirage, polytope and weyl tests",
	"gates.PSwap":                        "read from source by TestWriteQASMReadsBackOrFails; used by circuit, gates and weyl tests",
	"linalg.Mat4.TraceMulDagger":         "used by decompose and linalg tests",
	"linalg.Matrix.EqualUpToGlobalPhase": "used by circuit, decompose, gates, linalg, mirage, sabre, transpile and weyl tests",
	"mirage.GateWeight":                  "used by mirage, transpile and facade tests",
	"polytope.RootCoverageCount":         "used by distrib, polytope and transpile tests",
	"weyl.ISwapCoord":                    "used by polytope and weyl tests",
	"weyl.MustCoordinateOf":              "used by decompose, mirage, polytope and sabre tests",
	"weyl.SqrtISwapCoord":                "used by polytope and weyl tests",
}

// TestInternalExportsAreReached parses every non-test Go file of the
// module (cmd/mirbench and the examples included) and fails on each
// exported top-level func, method, type, var or const declared under
// internal/ that no non-test file names outside its own declaration,
// unless reachedOnlyByTests gives the reason it stays. Methods of a
// type that mirage.go aliases are the public facade and are exempt.
// The check is syntactic: a method counts as named when any selector
// or interface method anywhere carries its name.
func TestInternalExportsAreReached(t *testing.T) {
	fset := token.NewFileSet()
	type srcFile struct {
		dir  string // slash-separated, relative to the module root
		file *ast.File
	}
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// imports maps each import name in f to the directory of a package
	// of this module; other imports are left out.
	imports := func(f *ast.File) map[string]string {
		m := map[string]string{}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(path, "repro/")
			if !ok {
				continue
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			m[name] = dir
		}
		return m
	}

	// Declarations under internal/, keyed "dir.Name" or
	// "dir.Type.Method"; declaring identifiers are not uses.
	type decl struct{ dir, recv, name string }
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	facade := map[string]bool{} // "dir.Type" aliased by mirage.go
	for _, sf := range files {
		if sf.dir == "." && sf.file.Name.Name == "mirage" {
			imp := imports(sf.file)
			for _, d := range sf.file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
						if x, ok := sel.X.(*ast.Ident); ok && imp[x.Name] != "" {
							facade[imp[x.Name]+"."+sel.Sel.Name] = true
						}
					}
				}
			}
		}
		internal := strings.HasPrefix(sf.dir, "internal/")
		for _, d := range sf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declIdents[d.Name] = true
				if !internal || !d.Name.IsExported() {
					continue
				}
				decls = append(decls, decl{sf.dir, receiverType(d), d.Name.Name})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						declIdents[id] = true
						if internal && id.IsExported() {
							decls = append(decls, decl{sf.dir, "", id.Name})
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}       // "dir.Name" of top-level names
	methodUsed := map[string]bool{} // method names, any receiver
	for _, sf := range files {
		imp := imports(sf.file)
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imp[x.Name] != "" {
					used[imp[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				methodUsed[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, field := range n.Methods.List {
					for _, id := range field.Names {
						methodUsed[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdents[n] {
					used[sf.dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(sf.file, visit)
	}

	var unreached []string
	allowed := map[string]bool{}
	for _, d := range decls {
		pkg := d.dir[strings.LastIndex(d.dir, "/")+1:]
		name := pkg + "." + d.name
		if d.recv != "" {
			if facade[d.dir+"."+d.recv] || methodUsed[d.name] {
				continue
			}
			name = pkg + "." + d.recv + "." + d.name
		} else if used[d.dir+"."+d.name] {
			continue
		}
		if _, ok := reachedOnlyByTests[name]; ok {
			allowed[name] = true
		} else {
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported names under internal/ are named by no non-test file; move each into the tests that use it, or give reachedOnlyByTests the reason it stays:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	for name := range reachedOnlyByTests {
		if !allowed[name] {
			t.Errorf("reachedOnlyByTests lists %s, which is gone or now named by a non-test file", name)
		}
	}
}

// receiverType returns the type name of d's receiver, or "" for a
// plain function.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
