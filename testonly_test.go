package lumen

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllow names the declarations under internal/ that production
// code does not use but that stay in a production file, each with the
// reason it cannot move into a _test.go file. Keep it short: a
// declaration that only tests use belongs in the tests.
var testOnlyAllow = map[string]string{
	"internal/report.FlagTable":                "the README flag-table tests of three cmd packages share it, and Go has no cross-package test helpers",
	"internal/mlkit/linalg.SetWorkers":         "the worker-count seam of the linalg and mlkit equivalence tests, which pin every kernel's bits across worker counts",
	"internal/pcap.mmapSupported":              "a per-platform constant (mmap.go or mmap_stub.go by build tag) that lets the pcap tests skip mapped reads where there are none",
	"internal/netpkt.(*PacketView).AppDecoded": "core's op-registry test checks from outside netpkt that filling a field decodes no app layer its declared need leaves out",
}

// TestDocLintNoTestOnlyDecls holds production code to what production
// calls: every package-level declaration and method under internal/
// must be used by some non-test file of the module (cmd/, bench/ and
// examples/ count as callers), or be named in testOnlyAllow. A helper
// only tests need lives in a _test.go file, as a ref* oracle where it is
// one. `make docs-lint` runs it.
func TestDocLintNoTestOnlyDecls(t *testing.T) {
	found, err := testOnlyDecls(".", "lumen")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range found {
		if _, ok := testOnlyAllow[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		t.Errorf("%s: %s has no caller outside tests: move it into the tests that use it, or delete it", d.pos, d.key)
	}
	for key := range testOnlyAllow {
		if !allowed[key] {
			t.Errorf("testOnlyAllow names %s, which production code now uses or which is gone: drop the entry", key)
		}
	}
}

// TestDocLintNoTestOnlyDeclsFixture runs the checker on a small module
// under testdata/testonly: it must flag the helper that only a _test.go
// file calls, and neither a method that satisfies io.Reader nor a method
// of a generic type.
func TestDocLintNoTestOnlyDeclsFixture(t *testing.T) {
	found, err := testOnlyDecls("testdata/testonly", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, d := range found {
		keys = append(keys, d.key)
	}
	if want := []string{"internal/widget.Helper"}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Errorf("flagged %v, want %v", keys, want)
	}
}

// testOnlyDecl is one declaration no non-test file uses: key is the
// package directory and the name ("internal/mlkit.(*Tree).Depth"), pos
// its file and line.
type testOnlyDecl struct {
	key, pos string
}

// testOnlyDecls type-checks the non-test files of every package of the
// module rooted at root (module path modPath, standard-library imports
// only) and returns, sorted by key, each package-level declaration and
// method under root/internal that nothing outside its own declaration
// uses. A use counts from any package of the module. Also counted as
// used: a method that an interface of the module or of an imported
// standard-library package names on a type that implements it, a method
// of a generic type reached through an instance, and every const of an
// iota block of which one const is used.
func testOnlyDecls(root, modPath string) ([]testOnlyDecl, error) {
	dirs, err := goPackageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	w := &declWalk{
		fset: fset, root: root, modPath: modPath,
		std:    importer.ForCompiler(fset, "gc", nil),
		pkgs:   map[string]*checkedPkg{},
		uses:   map[types.Object][]token.Pos{},
		extent: map[types.Object][2]token.Pos{},
	}
	for _, dir := range dirs {
		if _, err := w.check(dir); err != nil {
			return nil, err
		}
	}
	used := w.usedObjects()
	var out []testOnlyDecl
	for _, dir := range dirs {
		rel := filepath.ToSlash(dir)
		if rel != "internal" && !strings.HasPrefix(rel, "internal/") {
			continue
		}
		cp := w.pkgs[dir]
		for _, obj := range cp.decls() {
			if !used[obj] {
				key := rel + "." + obj.Name()
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						key = rel + "." + recvName(recv.Type()) + "." + fn.Name()
					}
				}
				p := fset.Position(obj.Pos())
				rp, _ := filepath.Rel(root, p.Filename)
				out = append(out, testOnlyDecl{key: key, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rp), p.Line)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// goPackageDirs returns, relative to root, every directory below it that
// holds a non-test .go file, skipping testdata and hidden directories.
func goPackageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			if !seen[rel] {
				seen[rel] = true
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// declWalk type-checks a module's packages from source, each once, in
// import order, and records every use of every object.
type declWalk struct {
	fset          *token.FileSet
	root, modPath string
	std           types.Importer
	pkgs          map[string]*checkedPkg // by directory relative to root
	uses          map[types.Object][]token.Pos
	// extent spans each declaration, so that a recursive call or a
	// self-referencing type is not its own caller.
	extent map[types.Object][2]token.Pos
	// ifaces holds the interface types the module's code mentions.
	ifaces []types.Type
}

// checkedPkg is one type-checked package and its syntax.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	// iota holds, per const that sits in a block using iota, the
	// block's consts.
	iota map[types.Object][]types.Object
}

// check type-checks the package in dir (relative to root), after the
// module packages it imports.
func (w *declWalk) check(dir string) (*checkedPkg, error) {
	if cp, ok := w.pkgs[dir]; ok {
		if cp == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return cp, nil
	}
	w.pkgs[dir] = nil
	bp, err := build.ImportDir(filepath.Join(w.root, dir), 0)
	if err != nil {
		return nil, err
	}
	cp := &checkedPkg{iota: map[types.Object][]types.Object{}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(w.fset, filepath.Join(w.root, dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if rel, ok := strings.CutPrefix(path, w.modPath+"/"); ok {
			dep, err := w.check(filepath.FromSlash(rel))
			if err != nil {
				return nil, err
			}
			return dep.pkg, nil
		}
		return w.std.Import(path)
	})}
	pkgPath := w.modPath
	if dir != "." {
		pkgPath += "/" + filepath.ToSlash(dir)
	}
	cp.pkg, err = conf.Check(pkgPath, w.fset, cp.files, info)
	if err != nil {
		return nil, err
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		w.uses[obj] = append(w.uses[obj], id.Pos())
	}
	for _, tv := range info.Types {
		if _, ok := tv.Type.Underlying().(*types.Interface); ok {
			w.ifaces = append(w.ifaces, tv.Type)
		}
	}
	for _, f := range cp.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				w.extent[info.Defs[fd.Name]] = [2]token.Pos{fd.Pos(), fd.End()}
				continue
			}
			gd := decl.(*ast.GenDecl)
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					w.extent[info.Defs[ts.Name]] = [2]token.Pos{ts.Pos(), ts.End()}
				}
			}
			if gd.Tok != token.CONST || !usesIota(gd) {
				continue
			}
			var block []types.Object
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if obj := info.Defs[id]; obj != nil {
						block = append(block, obj)
					}
				}
			}
			for _, obj := range block {
				cp.iota[obj] = block
			}
		}
	}
	w.pkgs[dir] = cp
	return cp, nil
}

// usesIota reports whether a const block mentions iota.
func usesIota(gd *ast.GenDecl) bool {
	found := false
	ast.Inspect(gd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decls returns the package's package-level objects and the methods
// declared on its named types.
func (cp *checkedPkg) decls() []types.Object {
	var out []types.Object
	scope := cp.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name == "_" || name == "init" || name == "main" {
			continue
		}
		out = append(out, obj)
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					out = append(out, named.Method(i))
				}
			}
		}
	}
	return out
}

// usedObjects returns the set of objects that have a use outside their
// own declaration, closed over iota blocks and interface satisfaction.
func (w *declWalk) usedObjects() map[types.Object]bool {
	var named []*types.Named
	for _, cp := range w.pkgs {
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if _, isIface := n.Underlying().(*types.Interface); !isIface {
						named = append(named, n)
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for obj, positions := range w.uses {
		ext, ok := w.extent[obj]
		for _, p := range positions {
			if !ok || p < ext[0] || p >= ext[1] {
				used[obj] = true
				break
			}
		}
	}
	for _, cp := range w.pkgs {
		for obj, block := range cp.iota {
			if used[obj] {
				for _, c := range block {
					used[c] = true
				}
			}
		}
	}
	for _, it := range w.interfaces() {
		for _, n := range named {
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[obj] = true
				}
			}
		}
	}
	return used
}

// interfaces returns every non-empty method-set interface the module's
// code mentions or that a package it imports (transitively) declares,
// generic ones left out.
func (w *declWalk) interfaces() []*types.Interface {
	var out []*types.Interface
	keep := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	for _, t := range w.ifaces {
		keep(t)
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				keep(tn.Type())
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, cp := range w.pkgs {
		visit(cp.pkg)
	}
	return out
}

// recvName renders a method's receiver type as "T" or "(*T)".
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		return "(*" + recvName(p.Elem()) + ")"
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
