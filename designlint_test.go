package pilotrf

// A design-decision gate: which arrays a register-file design is made
// of is decided in internal/regfile (Design.Partitioned) and in each
// design scheme. A case clause elsewhere that names a regfile.Design
// constant decides it again, and a new scheme would then need an edit
// there too.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestNoDesignSwitchOutsideRegfile(t *testing.T) {
	consts := designConstants(t)
	regfileDir := filepath.Join("internal", "regfile")
	for _, path := range moduleGoFiles(t) {
		if strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == regfileDir {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				ast.Inspect(e, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && consts[id.Name] {
						t.Errorf("%s: case clause names %s; branch on a regfile.Design method or move the decision into a scheme",
							fset.Position(id.Pos()), id.Name)
					}
					return true
				})
			}
			return true
		})
	}
}

// designConstants returns the names of the regfile.Design constants,
// read from the package source so a new design is covered too.
func designConstants(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "regfile", "regfile.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		// A spec with neither type nor value repeats the previous one's.
		isDesign := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Type != nil || vs.Values != nil {
				id, ok := vs.Type.(*ast.Ident)
				isDesign = ok && id.Name == "Design"
			}
			for _, n := range vs.Names {
				if isDesign {
					names[n.Name] = true
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no regfile.Design constants")
	}
	return names
}
