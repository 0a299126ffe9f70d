package lumen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lumen/internal/core"
	"lumen/internal/daemon"
)

// TestDocLint enforces the repo's documentation floor with go/ast:
//
//  1. every package under internal/ and cmd/ must carry a package
//     comment (on any non-test file) explaining what it is; and
//  2. in the packages whose API other layers program against —
//     internal/obs, internal/core, and internal/daemon (the operator
//     surface behind cmd/lumend) — every exported type, function, and
//     method on an exported type must have a doc comment.
//
// `make docs-lint` runs exactly this test; `make check` includes it.
func TestDocLint(t *testing.T) {
	pkgs := findPackageDirs(t, "internal", "cmd")
	for _, dir := range pkgs {
		checkPackageComment(t, dir)
	}
	for _, dir := range []string{"internal/obs", "internal/core", "internal/daemon"} {
		checkExportedDocs(t, dir)
	}
}

// TestDocLintOpTable pins DESIGN.md's op table to the registrations it
// is generated from, so the doc cannot drift from what the planner does.
// `make docs-lint` runs it (its -run pattern is a prefix of this name).
func TestDocLintOpTable(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- optable:begin -->\n```\n", "```\n<!-- optable:end -->"
	_, rest, ok := bytes.Cut(doc, []byte(begin))
	block, _, ok2 := bytes.Cut(rest, []byte(end))
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %q ... %q block", begin, end)
	}
	var want bytes.Buffer
	if err := core.WriteOpTable(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(block, want.Bytes()) {
		t.Errorf("DESIGN.md's op table is stale: replace the block with the output of `go run ./cmd/lumen -list-ops`")
	}
}

// designMaxBytes is DESIGN.md's size ceiling, a ratchet: a change that
// adds to the document pays for it by trimming elsewhere. Lower it when a
// rewrite shrinks the document; never raise it.
const designMaxBytes = 70784

// TestDocLintDesignSize holds DESIGN.md to designMaxBytes.
func TestDocLintDesignSize(t *testing.T) {
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := fi.Size(); n > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte ceiling by %d: trim what the change made stale", n, designMaxBytes, n-designMaxBytes)
	}
}

// TestDocLintConfigKeys pins OPERATIONS.md's lumend key reference to the
// structs the config file decodes into: the table is rendered from their
// json tags (by reflection) and field comments (by go/ast), so a key
// without a comment, a renamed tag or an edited row all fail here. On a
// mismatch the rendered table is written to $TMPDIR/lumend_keys.md: paste
// it between the markers.
func TestDocLintConfigKeys(t *testing.T) {
	docs := map[string]string{} // "Type.Field" -> comment
	for _, dir := range []string{"internal/daemon", "internal/core"} {
		_, files := parseDir(t, dir)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, _ := n.(*ast.TypeSpec)
				if ts == nil {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							docs[ts.Name.Name+"."+name.Name] = strings.Join(strings.Fields(fld.Doc.Text()), " ")
						}
					}
				}
				return true
			})
		}
	}
	var table strings.Builder
	table.WriteString("| Key | Type | Meaning |\n|---|---|---|\n")
	var walk func(rt reflect.Type, prefix string)
	walk = func(rt reflect.Type, prefix string) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			ft, kind := f.Type, ""
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
				if ft.Kind() == reflect.Slice {
					kind = "list of "
				}
				ft = ft.Elem()
			}
			switch {
			case key == "-":
				continue
			case f.Anonymous && key == "":
				walk(ft, prefix) // embedded: its keys are this object's
				continue
			case key == "":
				t.Errorf("%s.%s is reachable from the config file but has no json tag", rt.Name(), f.Name)
				continue
			}
			doc, ok := strings.CutPrefix(docs[rt.Name()+"."+f.Name], f.Name+" ")
			if !ok {
				t.Errorf("%s.%s (key %q) needs a field comment starting with its name", rt.Name(), f.Name, prefix+key)
			}
			doc = strings.TrimPrefix(doc, "is ")
			switch ft.Kind() {
			case reflect.Struct:
				fmt.Fprintf(&table, "| `%s%s` | %sobject | %s |\n", prefix, key, kind, doc)
				if kind == "" {
					walk(ft, prefix+key+".")
				} else {
					walk(ft, "") // keys below are relative to one list entry
				}
			case reflect.String, reflect.Bool:
				fmt.Fprintf(&table, "| `%s%s` | %s%s | %s |\n", prefix, key, kind, ft.Kind(), doc)
			default:
				fmt.Fprintf(&table, "| `%s%s` | %snumber | %s |\n", prefix, key, kind, doc)
			}
		}
	}
	walk(reflect.TypeOf(daemon.FileConfig{}), "")
	want := "<!-- lumend-keys:begin -->\n" + table.String() + "<!-- lumend-keys:end -->"
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, []byte(want)) {
		path := filepath.Join(os.TempDir(), "lumend_keys.md")
		if err := os.WriteFile(path, []byte(want+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("OPERATIONS.md's lumend key table is stale: replace the lumend-keys block with %s", path)
	}
}

// findPackageDirs walks roots and returns every directory containing at
// least one non-test .go file.
func findPackageDirs(t *testing.T, roots ...string) []string {
	t.Helper()
	var dirs []string
	seen := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.Dir(path)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
	return dirs
}

// parseDir parses every non-test .go file in dir.
func parseDir(t *testing.T, dir string) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		files[path] = f
	}
	return fset, files
}

// checkPackageComment fails unless some non-test file in dir carries a
// package doc comment.
func checkPackageComment(t *testing.T, dir string) {
	t.Helper()
	_, files := parseDir(t, dir)
	for _, f := range files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return
		}
	}
	t.Errorf("package %s has no package comment on any file", dir)
}

// checkExportedDocs fails for every exported declaration in dir that
// lacks a doc comment: types, functions, and methods whose receiver type
// is exported. Grouped const/var blocks count as documented when the
// block has a comment.
func checkExportedDocs(t *testing.T, dir string) {
	t.Helper()
	fset, files := parseDir(t, dir)
	for path, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !receiverExported(d) {
					continue
				}
				if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
					t.Errorf("%s: exported %s %s has no doc comment",
						fset.Position(d.Pos()), funcKind(d), funcName(d))
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if !ts.Name.IsExported() {
						continue
					}
					if (d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "") &&
						(ts.Doc == nil || strings.TrimSpace(ts.Doc.Text()) == "") {
						t.Errorf("%s: exported type %s has no doc comment",
							fset.Position(ts.Pos()), ts.Name.Name)
					}
				}
			}
		}
		_ = path
	}
}

// receiverExported reports whether d is a plain function or a method on
// an exported receiver type — methods on unexported types are internal
// API and exempt.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	return ast.IsExported(receiverTypeName(d))
}

// receiverTypeName extracts the receiver's base type name ("Engine" from
// *Engine, "Span" from Span).
func receiverTypeName(d *ast.FuncDecl) string {
	expr := d.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return receiverTypeName(d) + "." + d.Name.Name
	}
	return d.Name.Name
}
