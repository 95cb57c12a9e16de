package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The function-local dataflow layer. PR 5's analyzers are
// single-statement AST checks; the lifecycle analyzers (poollife,
// lockdiscipline, goroutinelife) need to reason about what holds on
// each path through a function — is the lock still held at this
// return, was the pooled object Put before this use. Full SSA would be
// overkill for function bodies this size, so the layer implements
// reaching-uses over the AST in source order: a structural walk that
// visits every expression-level event (call, send, receive, assignment,
// go statement, closure) exactly once per syntactic occurrence, forks
// the client's abstract state at branches (if/switch/select), rejoins
// the fall-through states afterwards, and reports every function exit
// (explicit return or falling off the end). Clients keep their own
// state and receive fork/restore/merge callbacks, so the same walker
// serves a held-lock set, a pooled-object status map, and a
// WaitGroup.Add event trace.
//
// Approximations, chosen to keep the false-positive rate workable:
//
//   - Loop bodies are analyzed once with the state at loop entry, and
//     the state after the loop is the entry state (a body that exits an
//     iteration unbalanced is reported by the client via loopEnd).
//   - break/continue/goto terminate their path: the walker does not
//     match them to their targets.
//   - Closure bodies are events (onFuncLit), not inlined control flow —
//     a closure runs at an unknown time, so each FuncLit is analyzed
//     separately as its own function. The one exception is
//     `defer func() { ... }()`, whose body is delivered via
//     onDeferClosure because it observably runs on every exit path.

// flowHooks are the client callbacks of walkFlow. Any hook may be nil.
type flowHooks struct {
	// onCall fires for every call expression in source order.
	// deferred marks calls that are the operand of a defer statement.
	onCall func(call *ast.CallExpr, deferred bool)
	// onDeferClosure fires for `defer func() { ... }()`; the walker does
	// not descend into the body.
	onDeferClosure func(lit *ast.FuncLit)
	// onFuncLit fires for every non-deferred function literal; the
	// walker does not descend into the body.
	onFuncLit func(lit *ast.FuncLit)
	// onAssign fires after the right-hand side's events of an
	// assignment or short declaration.
	onAssign func(assign *ast.AssignStmt)
	// onSend fires for channel sends.
	onSend func(send *ast.SendStmt)
	// onRecv fires for channel receives (<-ch) outside select comm
	// clauses; receives that are a select case arrive via onSelect.
	onRecv func(recv *ast.UnaryExpr)
	// onSelect fires when a select statement is reached, before its
	// cases are walked. blocking is false when a default clause exists.
	onSelect func(sel *ast.SelectStmt, blocking bool)
	// onGo fires for go statements; the spawned call's arguments are
	// walked as ordinary expressions, the closure body is not.
	onGo func(g *ast.GoStmt)
	// onRange fires when a range statement is reached, before its body.
	onRange func(rng *ast.RangeStmt)
	// onExit fires at every function exit: each return statement, and
	// once at the end of the body if it can fall through.
	onExit func(n ast.Node)
	// loopEnd fires when a loop body can fall through to the next
	// iteration, so clients can compare the iteration-end state against
	// the loop-entry snapshot taken at fork.
	loopEnd func(loop ast.Node, entry any)

	// fork snapshots the client state before a branch; restore
	// reinstates a snapshot; merge combines the fall-through states of
	// sibling branches (outs never empty) into the current state.
	// All three must be set together or not at all.
	fork    func() any
	restore func(snapshot any)
	merge   func(outs []any)
}

func (h *flowHooks) forkState() any {
	if h.fork == nil {
		return nil
	}
	return h.fork()
}

func (h *flowHooks) restoreState(s any) {
	if h.restore != nil {
		h.restore(s)
	}
}

// walkFlow traverses body in source order, invoking hooks, and reports
// whether every path through it terminates (returns or branches away)
// before reaching the end.
func walkFlow(body *ast.BlockStmt, h *flowHooks) {
	terminated := flowBlock(body.List, h)
	if !terminated && h.onExit != nil {
		h.onExit(body)
	}
}

// flowBlock walks one statement list; true means no path falls through
// to the statement after the list.
func flowBlock(list []ast.Stmt, h *flowHooks) bool {
	for _, stmt := range list {
		if flowStmt(stmt, h) {
			return true
		}
	}
	return false
}

// flowStmt walks one statement; true means the path terminates here.
func flowStmt(stmt ast.Stmt, h *flowHooks) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		flowExpr(s.X, h)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			flowExpr(r, h)
		}
		for _, l := range s.Lhs {
			flowExpr(l, h)
		}
		if h.onAssign != nil {
			h.onAssign(s)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						flowExpr(v, h)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		flowExpr(s.X, h)
	case *ast.SendStmt:
		flowExpr(s.Chan, h)
		flowExpr(s.Value, h)
		if h.onSend != nil {
			h.onSend(s)
		}
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			flowExpr(a, h)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			if h.onDeferClosure != nil {
				h.onDeferClosure(lit)
			}
		} else {
			flowExpr(s.Call.Fun, h)
		}
		if h.onCall != nil {
			h.onCall(s.Call, true)
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			flowExpr(a, h)
		}
		if h.onGo != nil {
			h.onGo(s)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			flowExpr(r, h)
		}
		if h.onExit != nil {
			h.onExit(s)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this path; the walker does not chase
		// the target, so the path is conservatively terminated.
		return true
	case *ast.BlockStmt:
		return flowBlock(s.List, h)
	case *ast.LabeledStmt:
		return flowStmt(s.Stmt, h)
	case *ast.IfStmt:
		return flowIf(s, h)
	case *ast.ForStmt:
		if s.Init != nil {
			flowStmt(s.Init, h)
		}
		if s.Cond != nil {
			flowExpr(s.Cond, h)
		}
		flowLoopBody(s, s.Body, s.Post, h)
		// Loops with no condition and no break never fall through, but
		// proving break-freedom is not worth the precision; treat every
		// loop as skippable.
		return false
	case *ast.RangeStmt:
		flowExpr(s.X, h)
		if h.onRange != nil {
			h.onRange(s)
		}
		flowLoopBody(s, s.Body, nil, h)
		return false
	case *ast.SwitchStmt:
		if s.Init != nil {
			flowStmt(s.Init, h)
		}
		if s.Tag != nil {
			flowExpr(s.Tag, h)
		}
		return flowCases(s.Body.List, h, hasDefaultCase(s.Body.List))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			flowStmt(s.Init, h)
		}
		flowStmt(s.Assign, h)
		return flowCases(s.Body.List, h, hasDefaultCase(s.Body.List))
	case *ast.SelectStmt:
		if h.onSelect != nil {
			h.onSelect(s, !hasDefaultComm(s.Body.List))
		}
		return flowComms(s.Body.List, h)
	}
	return false
}

// flowIf forks the state across the then/else branches and merges the
// fall-through ends.
func flowIf(s *ast.IfStmt, h *flowHooks) bool {
	if s.Init != nil {
		flowStmt(s.Init, h)
	}
	flowExpr(s.Cond, h)
	before := h.forkState()
	thenDone := flowBlock(s.Body.List, h)
	var outs []any
	if !thenDone && h.fork != nil {
		outs = append(outs, h.fork())
	}
	elseDone := false
	if s.Else != nil {
		h.restoreState(before)
		elseDone = flowStmt(s.Else, h)
		if !elseDone && h.fork != nil {
			outs = append(outs, h.fork())
		}
	} else {
		// No else: the false path falls through with the pre-if state.
		outs = append(outs, before)
	}
	if thenDone && elseDone {
		return true
	}
	if h.merge != nil {
		h.merge(outs)
	}
	return false
}

// flowLoopBody analyzes a loop body once from the loop-entry state and
// reinstates that state afterwards (the loop may run zero times).
func flowLoopBody(loop ast.Node, body *ast.BlockStmt, post ast.Stmt, h *flowHooks) {
	entry := h.forkState()
	done := flowBlock(body.List, h)
	if !done {
		if post != nil {
			flowStmt(post, h)
		}
		if h.loopEnd != nil {
			h.loopEnd(loop, entry)
		}
	}
	h.restoreState(entry)
}

// flowCases walks switch case bodies, each from the pre-switch state,
// and merges the fall-through ends. exhaustive marks a default clause.
func flowCases(clauses []ast.Stmt, h *flowHooks, exhaustive bool) bool {
	before := h.forkState()
	var outs []any
	allDone := len(clauses) > 0
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		h.restoreState(before)
		for _, e := range cc.List {
			flowExpr(e, h)
		}
		done := flowBlock(cc.Body, h)
		if !done {
			allDone = false
			if h.fork != nil {
				outs = append(outs, h.fork())
			}
		}
	}
	if !exhaustive {
		// Without a default the switch can match nothing and fall
		// through unchanged.
		outs = append(outs, before)
		allDone = false
	}
	if allDone {
		return true
	}
	h.restoreState(before)
	if h.merge != nil && len(outs) > 0 {
		h.merge(outs)
	}
	return false
}

// flowComms walks select comm clauses; the comm statement itself (the
// send or receive being selected on) is part of each branch.
func flowComms(clauses []ast.Stmt, h *flowHooks) bool {
	before := h.forkState()
	var outs []any
	allDone := len(clauses) > 0
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		h.restoreState(before)
		if cc.Comm != nil {
			flowStmt(cc.Comm, h)
		}
		done := flowBlock(cc.Body, h)
		if !done {
			allDone = false
			if h.fork != nil {
				outs = append(outs, h.fork())
			}
		}
	}
	if allDone {
		return true
	}
	h.restoreState(before)
	if h.merge != nil && len(outs) > 0 {
		h.merge(outs)
	}
	return false
}

func hasDefaultCase(clauses []ast.Stmt) bool {
	for _, cl := range clauses {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func hasDefaultComm(clauses []ast.Stmt) bool {
	for _, cl := range clauses {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// flowExpr emits the events inside one expression in source order.
// Function literal bodies are not descended into (they run at an
// unknown time); the literal itself is reported via onFuncLit.
func flowExpr(e ast.Expr, h *flowHooks) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if h.onFuncLit != nil {
				h.onFuncLit(n)
			}
			return false
		case *ast.CallExpr:
			// Arguments and the callee are visited by the inspection
			// before the call event matters for clients (pre-order), so
			// fire the call hook here; clients that care about exact
			// call-vs-argument ordering handle it via positions.
			if h.onCall != nil {
				h.onCall(n, false)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && h.onRecv != nil {
				h.onRecv(n)
			}
		}
		return true
	})
}

// --- shared type and call classification helpers ---

// syncTypeName reports the sync-package type name of t (unwrapping one
// pointer): "Pool", "Mutex", "RWMutex", "WaitGroup", "Cond", or "".
func syncTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	return obj.Name()
}

// methodOn resolves call as a method invocation and returns the
// receiver expression, the receiver's type and the method name.
func methodOn(pkg *Package, call *ast.CallExpr) (recv ast.Expr, recvType types.Type, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, "", false
	}
	selection, hasSel := pkg.Info.Selections[sel]
	if !hasSel || selection.Kind() != types.MethodVal {
		return nil, nil, "", false
	}
	return sel.X, selection.Recv(), sel.Sel.Name, true
}

// exprKey renders a receiver expression as a stable per-function key:
// "l.mu", "c.faults.mu", "mu". Expressions that are not plain
// ident/selector chains render as "" (and are not tracked).
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.StarExpr:
		return exprKey(e.X)
	}
	return ""
}

// funcDeclIndex maps each function object of pkg to its declaration,
// so analyzers can look one call deep into same-package callees.
func funcDeclIndex(pkg *Package) map[types.Object]*ast.FuncDecl {
	idx := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				idx[obj] = fd
			}
		}
	}
	return idx
}

// forEachFuncBody visits every function and method body of pkg.
func forEachFuncBody(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
