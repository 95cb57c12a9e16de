package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The concurrency analyzer.
//
// Everywhere: a field or package-level variable that is passed to a
// sync/atomic function anywhere must be accessed through sync/atomic
// everywhere — one mixed plain load is a data race that vanishes under
// light load and corrupts counters under heavy load (the phantom-retry
// class of bug).
//
// On the hot-path packages (resolver, scan): a function that receives a
// context.Context must thread it — calling context.Background() or
// context.TODO() below a ctx parameter silently detaches cancellation
// from the scan, and a ctx parameter that is never used at all is a
// dropped deadline. (Goroutine closures may capture loop variables:
// the module is Go 1.22, whose per-iteration variables make the capture
// correct.)

func analyzeConcurrency(fset *token.FileSet, pkg *Package, cfg Config) []Finding {
	findings := checkAtomicMix(fset, pkg)
	if cfg.HotPath[pkg.Path] {
		findings = append(findings, checkContextThreading(fset, pkg)...)
	}
	return findings
}

// checkAtomicMix flags plain accesses to objects that are elsewhere
// accessed through sync/atomic functions (the &x.field arguments of
// atomic.AddInt64 and friends). Typed atomics (atomic.Int64) cannot be
// mixed and need no checking.
func checkAtomicMix(fset *token.FileSet, pkg *Package) []Finding {
	atomicObjs := make(map[types.Object]bool)
	sanctioned := make(map[token.Pos]bool) // operand positions inside atomic calls
	inspectFiles(pkg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, _, isPkgFn := packageFunc(pkg, call); !isPkgFn || path != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			unary, ok := arg.(*ast.UnaryExpr)
			if !ok || unary.Op != token.AND {
				continue
			}
			if obj := referencedObject(pkg, unary.X); obj != nil {
				atomicObjs[obj] = true
				sanctioned[unary.X.Pos()] = true
			}
		}
		return true
	})
	if len(atomicObjs) == 0 {
		return nil
	}
	var findings []Finding
	skipSel := make(map[*ast.Ident]bool)
	inspectFiles(pkg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skipSel[n.Sel] = true
			if obj := pkg.Info.Uses[n.Sel]; obj != nil && atomicObjs[obj] && !sanctioned[n.Pos()] {
				findings = append(findings, Finding{Pos: fset.Position(n.Pos()), Check: CheckConcurrency,
					Msg: fmt.Sprintf("%s is accessed via sync/atomic elsewhere; this plain access races with it", exprString(n))})
			}
		case *ast.Ident:
			if skipSel[n] {
				return true
			}
			if obj := pkg.Info.Uses[n]; obj != nil && atomicObjs[obj] && !sanctioned[n.Pos()] {
				findings = append(findings, Finding{Pos: fset.Position(n.Pos()), Check: CheckConcurrency,
					Msg: fmt.Sprintf("%s is accessed via sync/atomic elsewhere; this plain access races with it", n.Name)})
			}
		}
		return true
	})
	return findings
}

// referencedObject resolves the variable an &-operand denotes: a struct
// field for &x.f, a variable for &v.
func referencedObject(pkg *Package, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[e.Sel]
	case *ast.IndexExpr:
		return referencedObject(pkg, e.X)
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkContextThreading enforces the two ctx rules per function: no
// context.Background()/TODO() below a ctx parameter, and no ctx
// parameter that is never used. Closures inherit the enclosing
// function's ctx scope, so a goroutine body cannot dodge the rule.
func checkContextThreading(fset *token.FileSet, pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			findings = append(findings, checkCtxFunc(fset, pkg, fd.Type, fd.Body, false)...)
		}
	}
	return findings
}

// ctxParams returns the named context.Context parameter objects of ft.
func ctxParams(pkg *Package, ft *ast.FuncType) []types.Object {
	if ft.Params == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pkg.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

// checkCtxFunc analyzes one function body. inherited marks a closure
// whose enclosing function already has ctx in scope.
func checkCtxFunc(fset *token.FileSet, pkg *Package, ft *ast.FuncType, body *ast.BlockStmt, inherited bool) []Finding {
	params := ctxParams(pkg, ft)
	inScope := inherited || len(params) > 0
	used := make(map[types.Object]bool)
	var findings []Finding
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			findings = append(findings, checkCtxFunc(fset, pkg, n.Type, n.Body, inScope)...)
			// Closure bodies were handled by the recursive call; still
			// scan them for uses of the enclosing function's ctx params.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						used[obj] = true
					}
				}
				return true
			})
			return false
		case *ast.Ident:
			if obj := pkg.Info.Uses[n]; obj != nil {
				used[obj] = true
			}
		case *ast.CallExpr:
			if path, name, ok := packageFunc(pkg, n); ok && path == "context" && (name == "Background" || name == "TODO") && inScope {
				findings = append(findings, Finding{Pos: fset.Position(n.Pos()), Check: CheckConcurrency,
					Msg: fmt.Sprintf("context.%s() below a ctx parameter detaches cancellation; thread the caller's ctx", name)})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	for _, p := range params {
		if !used[p] {
			findings = append(findings, Finding{Pos: fset.Position(p.Pos()), Check: CheckConcurrency,
				Msg: fmt.Sprintf("ctx parameter %q is never used; thread it to callees or rename it to _", p.Name())})
		}
	}
	return findings
}
