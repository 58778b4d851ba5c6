package analysis

// alloclint: the compile-time twin of the AllocsPerRun==0 tests (DESIGN §11).
//
// Functions on the steady-state frame path are declared with //libra:hotpath
// (raster.RenderTileInto, sim.RunRaster, trace.Write, mem.AccessThroughL1,
// gpipe.Run, tiling.Binner.Bin, ...); the analyzer closes over everything
// statically reachable from them and, within the alloc-checked packages,
// flags the constructs the Go compiler turns into heap allocations:
//
//   - make / new
//   - composite literals that escape (&T{...}, slice/map literals; plain
//     value struct literals are stack-allocated and allowed)
//   - append that grows a different slice than it reads (the reuse idiom
//     `x = append(x, ...)` is the sanctioned watermark pattern)
//   - string concatenation and allocating string([]byte)/[]byte(string)
//     conversions
//   - fmt.* calls (allocate via interface boxing of their arguments)
//   - function literals that escape (go statements, stores, arguments,
//     returns); immediately-invoked and local-called literals are free,
//     and deferred literals use the open-coded defer path
//   - interface boxing at call sites: a non-pointer concrete value passed
//     to an interface parameter
//
// Control flow matters: allocation sites dominated by a lazy-init nil check
// (`if x == nil { x = make... }`) or a capacity watermark check
// (`if cap(x) < n { x = make... }`) run only until the steady state is
// reached, exactly like the runtime tests' warmup, and are exempt. Those
// guard facts come from the shared CFG dataflow (cfg.go).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocPackages are the package trees alloclint flags findings in — the
// steady-state frame loop's home (prefix-matched, so internal/mem covers
// internal/mem/cache and internal/mem/dram).
var AllocPackages = []string{
	"internal/raster",
	"internal/sim",
	"internal/tiling",
	"internal/gpipe",
	"internal/mem",
	"internal/trace",
}

// Alloclint builds the hot-path allocation analyzer.
func Alloclint() *Analyzer {
	return &Analyzer{
		Name: "alloclint",
		Doc:  "flag allocation-inducing constructs in //libra:hotpath functions",
		Applies: func(rel string) bool {
			return inAny(rel, AllocPackages)
		},
		Run: runAlloclint,
	}
}

func runAlloclint(p *Pass) {
	cons := collectContracts(p.Mod, p.Pkg)
	hot := cons.hotFunctions()
	if len(hot) == 0 {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil || !hot[obj] {
				continue
			}
			checkHotFunc(p, fd)
		}
	}
}

// checkHotFunc flags allocation constructs in one hot function body,
// including nested function literals (they execute on the hot path too).
func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	fname := fd.Name.Name
	// One CFG + guard-fact solution per syntactic function (the decl body
	// and each nested literal body get their own).
	type funcScope struct {
		body   *ast.BlockStmt
		cfg    *CFG
		guards *Guards
	}
	scopes := []funcScope{}
	addScope := func(body *ast.BlockStmt) {
		cfg := BuildCFG(body)
		scopes = append(scopes, funcScope{body, cfg, cfg.GuardFacts(p.Pkg.Info)})
	}
	addScope(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			addScope(fl.Body)
		}
		return true
	})
	// guardsAt finds the innermost scope containing the node and returns its
	// guard facts at the node's enclosing statement.
	guardsAt := func(n ast.Node) (*Guards, ast.Stmt) {
		var best *funcScope
		for i := range scopes {
			s := &scopes[i]
			if n.Pos() >= s.body.Pos() && n.End() <= s.body.End() {
				if best == nil || s.body.Pos() > best.body.Pos() {
					best = s
				}
			}
		}
		if best == nil {
			return nil, nil
		}
		return best.guards, enclosingStmt(best.body, best.cfg, n)
	}
	coldPath := func(n ast.Node) bool {
		g, stmt := guardsAt(n)
		if g == nil || stmt == nil {
			return false
		}
		return g.Has(stmt, factCapGrow) || g.HasPrefix(stmt, factIsNil)
	}

	// stack tracks parent nodes so literals/calls know their context.
	var stack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			checkCall(p, fname, e, coldPath)
		case *ast.CompositeLit:
			checkCompositeLit(p, fname, e, stack, coldPath)
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(p, e.X) {
				p.Report(e.OpPos, "hot path %s: string concatenation allocates", fname)
			}
		case *ast.FuncLit:
			checkFuncLit(p, fname, e, stack)
		}
		stack = append(stack, n)
		return true
	}
	// ast.Inspect pairs each non-nil visit with a nil visit, matching the
	// push/pop above.
	stack = append(stack, fd)
	ast.Inspect(fd.Body, walk)
}

// checkCall flags make/new, fmt calls, allocating conversions, non-reuse
// append, and interface boxing of concrete arguments.
func checkCall(p *Pass, fname string, call *ast.CallExpr, coldPath func(ast.Node) bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fn.Name {
		case "make", "new":
			if !coldPath(call) {
				p.Report(call.Pos(), "hot path %s: %s allocates on the steady-state path (guard with a nil/capacity check or hoist to setup)", fname, fn.Name)
			}
			return
		case "append":
			checkAppend(p, fname, call)
			return
		case "string":
			if len(call.Args) == 1 && !isStringType(p, call.Args[0]) {
				p.Report(call.Pos(), "hot path %s: string conversion allocates", fname)
			}
			return
		}
		// Conversion []byte(s) / []rune(s)?
		if tv, ok := p.Pkg.Info.Types[fn]; ok && tv.IsType() {
			checkConversion(p, fname, call)
			return
		}
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			if obj, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok && obj.Imported().Path() == "fmt" {
				p.Report(call.Pos(), "hot path %s: fmt.%s allocates (boxing + formatting)", fname, fn.Sel.Name)
				return
			}
		}
	case *ast.ArrayType:
		checkConversion(p, fname, call)
		return
	}
	checkBoxing(p, fname, call, coldPath)
}

// checkConversion flags []byte(string)-shaped conversions.
func checkConversion(p *Pass, fname string, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice && isStringType(p, call.Args[0]) {
			p.Report(call.Pos(), "hot path %s: []byte/[]rune conversion of a string allocates", fname)
		}
	}
}

// checkAppend enforces the reuse idiom: append must write back to the slice
// it reads (`x = append(x, ...)`), which only allocates until the watermark
// capacity is reached.
func checkAppend(p *Pass, fname string, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	src := exprKey(call.Args[0])
	// Find the assignment this append feeds. The append must be the RHS of
	// an assignment whose corresponding LHS is the same expression as the
	// first argument.
	if lhs, ok := appendTarget(p, call); ok {
		if lhs == src {
			return // x = append(x, ...) — sanctioned reuse
		}
		p.Report(call.Pos(), "hot path %s: append result stored to %q but grows %q — non-reused slice allocates every call", fname, lhs, src)
		return
	}
	p.Report(call.Pos(), "hot path %s: append result not written back to %q — growth is lost and reallocates every call", fname, src)
}

// appendTarget finds the LHS expression the append call's result is assigned
// to. `return append(dst, ...)` (the Append* producer pattern — the caller
// owns the reuse) and append nested in another call count as satisfied;
// a discarded result does not.
func appendTarget(p *Pass, call *ast.CallExpr) (string, bool) {
	path := nodePath(p, call)
	for i := len(path) - 1; i >= 0; i-- {
		switch parent := path[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.AssignStmt:
			for j, rhs := range parent.Rhs {
				if ast.Unparen(rhs) == call && j < len(parent.Lhs) {
					return exprKey(parent.Lhs[j]), true
				}
			}
			return "", false
		case *ast.ReturnStmt, *ast.CallExpr:
			return exprKey(call.Args[0]), true
		default:
			return "", false
		}
	}
	return "", false
}

// checkFuncLit flags function literals that escape: goroutine bodies, stores,
// call arguments, returns. Immediately-invoked literals, literals bound to a
// local variable, and deferred literals do not escape.
func checkFuncLit(p *Pass, fname string, fl *ast.FuncLit, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	switch pn := parent.(type) {
	case *ast.CallExpr:
		if ast.Unparen(pn.Fun) == fl {
			// The literal IS the callee: `go func(){}()` heap-allocates the
			// closure per call; deferred and immediately-invoked literals are
			// free (open-coded defer / inlined call).
			if len(stack) >= 2 {
				if g, ok := stack[len(stack)-2].(*ast.GoStmt); ok && g.Call == pn {
					p.Report(fl.Pos(), "hot path %s: goroutine closure allocates every call — hoist to a method with explicit state", fname)
				}
			}
			return
		}
		p.Report(fl.Pos(), "hot path %s: closure passed as argument escapes and allocates", fname)
	case *ast.AssignStmt:
		// Binding to a local variable keeps the closure on the stack as long
		// as the local doesn't escape; binding to a field/global escapes.
		for j, rhs := range pn.Rhs {
			if ast.Unparen(rhs) != fl || j >= len(pn.Lhs) {
				continue
			}
			if _, isIdent := ast.Unparen(pn.Lhs[j]).(*ast.Ident); !isIdent {
				p.Report(fl.Pos(), "hot path %s: closure stored to %q escapes and allocates", fname, exprKey(pn.Lhs[j]))
			}
		}
	case *ast.ReturnStmt:
		p.Report(fl.Pos(), "hot path %s: returned closure escapes and allocates", fname)
	}
}

// checkBoxing flags non-constant, non-pointer concrete values passed to
// interface parameters (each boxes into an escaping interface value).
func checkBoxing(p *Pass, fname string, call *ast.CallExpr, coldPath func(ast.Node) bool) {
	sig := callSignature(p, call)
	if sig == nil {
		return
	}
	if call.Ellipsis.IsValid() {
		return // xs... spread passes the slice through, no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := p.Pkg.Info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if tv.Value != nil {
			continue // constants box into preallocated or rodata values
		}
		at := tv.Type
		if at == types.Typ[types.UntypedNil] {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: no allocation to box
		}
		if coldPath(call) {
			continue
		}
		p.Report(arg.Pos(), "hot path %s: %s value boxed into interface argument allocates", fname, at.String())
	}
}

// callSignature resolves the signature of a (non-builtin, non-conversion)
// call, or nil.
func callSignature(p *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// checkCompositeLit flags escaping composite literals: address-taken struct
// literals and slice/map literals. Plain value struct/array literals stay on
// the stack.
func checkCompositeLit(p *Pass, fname string, cl *ast.CompositeLit, stack []ast.Node, coldPath func(ast.Node) bool) {
	tv, ok := p.Pkg.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		if len(cl.Elts) == 0 && isEmptyLiteralReset(stack, cl) {
			return
		}
		if !coldPath(cl) {
			p.Report(cl.Pos(), "hot path %s: %s literal allocates", fname, tv.Type.String())
		}
		return
	}
	if len(stack) == 0 {
		return
	}
	if ue, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && ue.Op == token.AND && !coldPath(cl) {
		p.Report(ue.Pos(), "hot path %s: &%s{...} escapes to the heap", fname, tv.Type.String())
	}
}

// isEmptyLiteralReset reports whether an empty slice/map literal is a plain
// nil-reset assignment (`x = nil`-equivalent like `f.in = T{}` is a struct;
// empty []T{} as an append seed still allocates — only `var` zero values are
// free, so keep this strict: nothing qualifies today).
func isEmptyLiteralReset(_ []ast.Node, _ *ast.CompositeLit) bool { return false }

// nodePath returns the ancestor chain of n within its file (outermost first),
// excluding n itself.
func nodePath(p *Pass, n ast.Node) []ast.Node {
	var file *ast.File
	for _, f := range p.Pkg.Files {
		if n.Pos() >= f.Pos() && n.End() <= f.End() {
			file = f
			break
		}
	}
	if file == nil {
		return nil
	}
	var path []ast.Node
	var stack []ast.Node
	ast.Inspect(file, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if m == n {
			path = append([]ast.Node(nil), stack...)
			return false
		}
		stack = append(stack, m)
		return true
	})
	return path
}

// enclosingStmt returns the innermost statement of body that both contains n
// and has a node in the CFG.
func enclosingStmt(body *ast.BlockStmt, cfg *CFG, n ast.Node) ast.Stmt {
	var best ast.Stmt
	ast.Inspect(body, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if n.Pos() < m.Pos() || n.End() > m.End() {
			return false
		}
		if s, ok := m.(ast.Stmt); ok && cfg.NodeFor(s) != nil {
			best = s
		}
		return true
	})
	return best
}

// isStringType reports whether the expression has string type.
func isStringType(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
