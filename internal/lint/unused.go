package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The unused analyzer reports each package-level func, method, type,
// var or const that no program reaches. The roots are every main, init
// and package-level var initializer in the load, and each declaration
// under a //lint:allow unused pragma; a reached declaration reaches what
// it uses. A method is also reached when its receiver type is and an
// interface in the load or its imports declares its name (String,
// MarshalText, dnswire's unexported RData). Tests are not loaded.

// declKey names a declaration across packages: a use in another package
// resolves to the importer's object, not the one checked from source.
type declKey struct{ pkg, recv, name string }

// decl is one declaration: the syntax whose uses it reaches, and the
// identifier a finding points at (nil for a root).
type decl struct {
	pkg   *Package
	nodes []ast.Node
	ident *ast.Ident
}

// keyOf returns the key of a package-level object or method; false for
// anything local, predeclared, or a method of an unnamed type.
func keyOf(obj types.Object) (declKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return declKey{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return declKey{}, false
			}
			return declKey{fn.Pkg().Path(), named.Obj().Name(), fn.Name()}, true
		}
		obj = fn.Origin()
	}
	return declKey{obj.Pkg().Path(), "", obj.Name()}, obj.Parent() == obj.Pkg().Scope()
}

// analyzeUnused runs once over every loaded package and reports the
// unreached declarations of the packages under the prefixes in report,
// testdata below them excluded.
func analyzeUnused(fset *token.FileSet, pkgs []*Package, report []string, allows allowSet) []Finding {
	decls := make(map[declKey]*decl)
	methods := make(map[declKey][]declKey) // by receiver type
	var work []*decl                       // the roots, then each newly reached declaration
	add := func(pkg *Package, id *ast.Ident, nodes ...ast.Node) {
		if k, ok := keyOf(pkg.Info.Defs[id]); ok && id.Name != "_" {
			decls[k] = &decl{pkg, nodes, id}
			if k.recv != "" {
				t := declKey{k.pkg, "", k.recv}
				methods[t] = append(methods[t], k)
			}
		}
	}
	ifaceMethods := make(map[string]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var addScope func(p *types.Package) // and every package it imports
	addScope = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			for _, name := range p.Scope().Names() {
				addIface(p.Scope().Lookup(name).Type())
			}
			for _, imp := range p.Imports() {
				addScope(imp)
			}
		}
	}
	for _, pkg := range pkgs {
		addScope(pkg.Pkg)
		for _, tv := range pkg.Info.Types { // interfaces local to a function
			addIface(tv.Type)
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Pkg.Name() == "main") {
						work = append(work, &decl{pkg, []ast.Node{fd}, nil})
					} else {
						add(pkg, fd.Name, fd)
					}
					continue
				}
				gd := d.(*ast.GenDecl)
				var last ast.Node // a const spec without values repeats the last one's
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(pkg, s.Name, s)
					case *ast.ValueSpec:
						if len(s.Values) > 0 || last == nil {
							last = s
						}
						if gd.Tok == token.VAR && len(s.Values) > 0 {
							work = append(work, &decl{pkg, []ast.Node{s}, nil})
						}
						for _, id := range s.Names {
							add(pkg, id, s, last)
						}
					}
				}
			}
		}
	}

	reached := make(map[declKey]bool)
	var reach func(k declKey)
	reach = func(k declKey) {
		if d, ok := decls[k]; ok && !reached[k] {
			reached[k] = true
			work = append(work, d)
			for _, m := range methods[k] {
				if ifaceMethods[m.name] {
					reach(m)
				}
			}
		}
	}
	for k, d := range decls {
		if allows.suppresses(Finding{Pos: fset.Position(d.ident.Pos()), Check: CheckUnused}) {
			reach(k)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, n := range d.nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if k, ok := keyOf(d.pkg.Info.Uses[id]); ok {
						reach(k)
					}
				}
				return true
			})
		}
	}

	var findings []Finding
	for k, d := range decls {
		for _, p := range report {
			if rest, ok := strings.CutPrefix(d.pkg.Path, p); ok && !reached[k] && !strings.Contains(rest, "testdata/") {
				findings = append(findings, Finding{Pos: fset.Position(d.ident.Pos()), Check: CheckUnused,
					Msg: fmt.Sprintf("%s is not reachable from any main, init or package-level var", strings.TrimPrefix(k.recv+"."+k.name, "."))})
				break
			}
		}
	}
	return findings
}
