package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// The nondeterminism analyzer. Inside the deterministic packages —
// ecosystem generation, classification, reporting, DNSSEC and zone
// material, and scan's export paths — three sources of run-to-run
// variance are banned:
//
//   - time.Now(): wall-clock anchoring must come in through config.
//   - the process-global math/rand functions (rand.Intn, rand.Shuffle,
//     ...): randomness must flow from a seeded *rand.Rand.
//   - ranging over a map when the body's effects depend on iteration
//     order: consuming an RNG, writing to an output stream, or
//     appending to a slice declared outside the loop.
//
// Sites that are provably order-independent (e.g. a map-range feeding a
// total sort) carry a //lint:allow nondeterminism <reason> pragma.

// randPackages are the import paths whose package-level functions draw
// from process-global RNG state.
var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// seededRandFuncs are the math/rand package functions that do NOT touch
// the global source (they construct seeded generators).
var seededRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// streamWriteMethods name methods whose invocation inside a map range
// leaks iteration order into an output stream or encoder.
var streamWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true, "Print": true, "Printf": true, "Println": true,
}

// fmtWriteFuncs name the fmt package functions that emit to a stream.
var fmtWriteFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func analyzeDeterminism(fset *token.FileSet, pkg *Package, cfg Config) []Finding {
	onlyFiles, scoped := cfg.Deterministic[pkg.Path]
	if !scoped {
		return nil
	}
	allowed := func(f *ast.File) bool {
		if onlyFiles == nil {
			return true
		}
		base := filepath.Base(fset.Position(f.Pos()).Filename)
		for _, want := range onlyFiles {
			if base == want {
				return true
			}
		}
		return false
	}
	var findings []Finding
	for _, file := range pkg.Files {
		if !allowed(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if f := checkWallClockOrGlobalRand(fset, pkg, n); f != nil {
					findings = append(findings, *f)
				}
			case *ast.RangeStmt:
				if f := checkMapRange(fset, pkg, file, n); f != nil {
					findings = append(findings, *f)
				}
			}
			return true
		})
	}
	return findings
}

// checkWallClockOrGlobalRand flags time.Now() and global math/rand
// function calls.
func checkWallClockOrGlobalRand(fset *token.FileSet, pkg *Package, call *ast.CallExpr) *Finding {
	path, name, ok := packageFunc(pkg, call)
	if !ok {
		return nil
	}
	switch {
	case path == "time" && name == "Now":
		return &Finding{Pos: fset.Position(call.Pos()), Check: CheckNondeterminism,
			Msg: "time.Now() in a deterministic package; thread the anchor time through configuration"}
	case randPackages[path] && !seededRandFuncs[name]:
		return &Finding{Pos: fset.Position(call.Pos()), Check: CheckNondeterminism,
			Msg: fmt.Sprintf("global rand.%s() draws from process-global state; use a seeded *rand.Rand", name)}
	}
	return nil
}

// packageFunc resolves a call of the form pkg.Fn and returns the
// package path and function name.
func packageFunc(pkg *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	ident, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[ident].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// checkMapRange flags a range over a map whose body depends on
// iteration order.
func checkMapRange(fset *token.FileSet, pkg *Package, file *ast.File, rng *ast.RangeStmt) *Finding {
	t := pkg.Info.TypeOf(rng.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	reason := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			reason = orderSensitiveCall(pkg, n)
		case *ast.AssignStmt:
			var obj types.Object
			reason, obj = escapingAppend(pkg, rng, n)
			// The canonical collect-then-sort idiom: appending map keys
			// to a slice that is sorted right after the loop erases the
			// iteration order (assuming a total comparator). This is the
			// very fix the finding recommends, so it must not re-fire.
			if reason != "" && obj != nil && sortedAfter(pkg, file, obj, rng.End()) {
				reason = ""
			}
		}
		return reason == ""
	})
	if reason == "" {
		return nil
	}
	return &Finding{Pos: fset.Position(rng.Pos()), Check: CheckNondeterminism,
		Msg: fmt.Sprintf("range over map with order-dependent body: %s; iterate a sorted key slice instead", reason)}
}

// orderSensitiveCall classifies a call inside a map-range body as RNG
// consumption or a stream write.
func orderSensitiveCall(pkg *Package, call *ast.CallExpr) string {
	if path, name, ok := packageFunc(pkg, call); ok {
		if randPackages[path] {
			return fmt.Sprintf("body consumes RNG state via rand.%s", name)
		}
		if path == "fmt" && fmtWriteFuncs[name] {
			return fmt.Sprintf("body writes to an output stream via fmt.%s", name)
		}
		return ""
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return ""
	}
	selection, hasSel := pkg.Info.Selections[sel]
	if !hasSel {
		return ""
	}
	recv := selection.Recv()
	if isRandRand(recv) {
		return fmt.Sprintf("body consumes RNG state via (*rand.Rand).%s", sel.Sel.Name)
	}
	if streamWriteMethods[sel.Sel.Name] {
		return fmt.Sprintf("body writes to an output stream via %s.%s", types.TypeString(recv, types.RelativeTo(pkg.Pkg)), sel.Sel.Name)
	}
	return ""
}

// isRandRand reports whether t is *math/rand.Rand (possibly behind a
// pointer).
func isRandRand(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && randPackages[obj.Pkg().Path()] && obj.Name() == "Rand"
}

// escapingAppend flags `x = append(x, ...)` where x is declared outside
// the range statement: the append order — and therefore the slice
// content — follows map iteration order. For ident targets the resolved
// object is returned so the caller can apply the sorted-after exemption.
func escapingAppend(pkg *Package, rng *ast.RangeStmt, assign *ast.AssignStmt) (string, types.Object) {
	for i, rhs := range assign.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			continue
		}
		if _, isBuiltin := pkg.Info.Uses[fn].(*types.Builtin); !isBuiltin {
			continue
		}
		if i >= len(assign.Lhs) {
			continue
		}
		switch lhs := assign.Lhs[i].(type) {
		case *ast.Ident:
			obj := pkg.Info.Uses[lhs]
			if obj == nil {
				obj = pkg.Info.Defs[lhs]
			}
			if obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End()) {
				return fmt.Sprintf("body appends to %q, which outlives the loop", lhs.Name), obj
			}
		case *ast.SelectorExpr:
			// A field or package-level target always escapes the loop.
			return fmt.Sprintf("body appends to %q, which outlives the loop", exprString(lhs)), nil
		}
	}
	return "", nil
}

// sortFuncs are the stdlib calls that impose a caller-chosen total
// order on a slice, erasing whatever order it was built in.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedAfter reports whether obj is passed to a sort call after pos.
// The object is function-local, so scanning the rest of its file is
// enough to see every statement that can mention it.
func sortedAfter(pkg *Package, file *ast.File, obj types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.End() < after {
			return true
		}
		path, name, isPkgFn := packageFunc(pkg, call)
		if !isPkgFn || !sortFuncs[path+"."+name] {
			return true
		}
		for _, arg := range call.Args {
			if id, isIdent := arg.(*ast.Ident); isIdent && pkg.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// exprString renders a selector chain for a message.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "?"
}
