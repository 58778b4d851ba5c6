package analysis

// A lightweight per-function control-flow graph over go/ast statements, plus
// the dataflow fact the analyzers share: a forward must-analysis of branch
// "guard facts" (nil-checks and capacity checks observed on the taken edge).
// It lets telemetrylint prove an emit's nil-guard holds on every path, and
// alloclint exempt lazy-init and watermark-growth cold paths that stop
// executing at steady state.
//
// The graph is statement-granular: every ast.Stmt in the function body gets
// one node (an IfStmt/ForStmt node stands for its condition evaluation, with
// labeled true/false successor edges). Functions in this codebase are small,
// so the O(N^2)-ish iterative fact fixpoint is cheap.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry *CFGNode
	Exit  *CFGNode
	Nodes []*CFGNode

	byStmt map[ast.Stmt]*CFGNode
}

// CFGNode is one statement (or the synthetic entry/exit) in the graph.
type CFGNode struct {
	Index int
	Stmt  ast.Stmt // nil for Entry and Exit
	Succs []*CFGEdge
	Preds []*CFGEdge
}

// CFGEdge connects two nodes. When the edge is one arm of a branch, Cond is
// the branch condition and Branch tells which way it evaluated.
type CFGEdge struct {
	From, To *CFGNode
	Cond     ast.Expr
	Branch   bool
}

// cfgBuilder carries the label/loop context while translating the AST.
type cfgBuilder struct {
	cfg *CFG

	// break/continue targets for the innermost enclosing constructs.
	breakTo    []*CFGNode
	continueTo []*CFGNode
	// label -> targets, for labeled break/continue/goto.
	labelBreak    map[string]*CFGNode
	labelContinue map[string]*CFGNode
	labelStmt     map[string]*CFGNode
}

// BuildCFG constructs the CFG for a function body. A nil body yields a graph
// with just entry -> exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{byStmt: make(map[ast.Stmt]*CFGNode)}
	c.Entry = c.newNode(nil)
	c.Exit = c.newNode(nil)
	b := &cfgBuilder{
		cfg:           c,
		labelBreak:    make(map[string]*CFGNode),
		labelContinue: make(map[string]*CFGNode),
		labelStmt:     make(map[string]*CFGNode),
	}
	if body != nil {
		// Pre-create nodes for labeled statements so forward gotos resolve.
		ast.Inspect(body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit:
				return false // nested function bodies get their own CFG
			case *ast.LabeledStmt:
				ls := n.(*ast.LabeledStmt)
				b.labelStmt[ls.Label.Name] = c.nodeFor(ls)
			}
			return true
		})
		last := b.stmts(body.List, c.Entry, nil)
		b.edge(last, c.Exit, nil, false)
	} else {
		b.edge(c.Entry, c.Exit, nil, false)
	}
	return c
}

func (c *CFG) newNode(s ast.Stmt) *CFGNode {
	n := &CFGNode{Index: len(c.Nodes), Stmt: s}
	c.Nodes = append(c.Nodes, n)
	if s != nil {
		c.byStmt[s] = n
	}
	return n
}

func (c *CFG) nodeFor(s ast.Stmt) *CFGNode {
	if n, ok := c.byStmt[s]; ok {
		return n
	}
	return c.newNode(s)
}

// NodeFor returns the node for a statement, or nil if the statement is not
// part of this function body (e.g. it lives inside a nested FuncLit).
func (c *CFG) NodeFor(s ast.Stmt) *CFGNode { return c.byStmt[s] }

// edge links from -> to. A nil from (already-terminated flow, e.g. after a
// return) is a no-op.
func (b *cfgBuilder) edge(from, to *CFGNode, cond ast.Expr, branch bool) {
	if from == nil || to == nil {
		return
	}
	e := &CFGEdge{From: from, To: to, Cond: cond, Branch: branch}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// stmts wires a statement list after prev and returns the node flow falls out
// of (nil when every path terminated). next is unused context, kept for
// symmetry with stmt.
func (b *cfgBuilder) stmts(list []ast.Stmt, prev *CFGNode, _ *CFGNode) *CFGNode {
	cur := prev
	for _, s := range list {
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt wires one statement after prev; returns the fall-through node (nil if
// control never falls out the bottom).
func (b *cfgBuilder) stmt(s ast.Stmt, prev *CFGNode) *CFGNode {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(st.List, prev, nil)

	case *ast.LabeledStmt:
		n := b.cfg.nodeFor(st)
		b.edge(prev, n, nil, false)
		// after is patched by the inner construct via labelBreak; for
		// non-loop labeled statements break-to-label jumps past them.
		after := b.cfg.newNode(nil) // synthetic join for labeled break
		b.labelBreak[st.Label.Name] = after
		out := b.labeledInner(st.Label.Name, st.Stmt, n)
		b.edge(out, after, nil, false)
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.IfStmt:
		n := b.cfg.nodeFor(st)
		if st.Init != nil {
			prev = b.stmt(st.Init, prev)
		}
		b.edge(prev, n, nil, false)
		join := b.cfg.newNode(nil)
		thenEntry := b.cfg.newNode(nil)
		b.edge(n, thenEntry, st.Cond, true)
		thenOut := b.stmts(st.Body.List, thenEntry, nil)
		b.edge(thenOut, join, nil, false)
		if st.Else != nil {
			elseEntry := b.cfg.newNode(nil)
			b.edge(n, elseEntry, st.Cond, false)
			elseOut := b.stmt(st.Else, elseEntry)
			b.edge(elseOut, join, nil, false)
		} else {
			b.edge(n, join, st.Cond, false)
		}
		if len(join.Preds) == 0 {
			return nil
		}
		return join

	case *ast.ForStmt:
		if st.Init != nil {
			prev = b.stmt(st.Init, prev)
		}
		head := b.cfg.nodeFor(st)
		b.edge(prev, head, nil, false)
		after := b.cfg.newNode(nil)
		b.pushLoop(after, head)
		bodyEntry := b.cfg.newNode(nil)
		if st.Cond != nil {
			b.edge(head, bodyEntry, st.Cond, true)
			b.edge(head, after, st.Cond, false)
		} else {
			b.edge(head, bodyEntry, nil, false)
		}
		bodyOut := b.stmts(st.Body.List, bodyEntry, nil)
		if st.Post != nil {
			bodyOut = b.stmt(st.Post, bodyOut)
		}
		b.edge(bodyOut, head, nil, false)
		b.popLoop()
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.RangeStmt:
		head := b.cfg.nodeFor(st)
		b.edge(prev, head, nil, false)
		after := b.cfg.newNode(nil)
		b.pushLoop(after, head)
		bodyEntry := b.cfg.newNode(nil)
		b.edge(head, bodyEntry, nil, false)
		b.edge(head, after, nil, false) // range may be empty
		bodyOut := b.stmts(st.Body.List, bodyEntry, nil)
		b.edge(bodyOut, head, nil, false)
		b.popLoop()
		return after

	case *ast.SwitchStmt:
		if st.Init != nil {
			prev = b.stmt(st.Init, prev)
		}
		head := b.cfg.nodeFor(st)
		b.edge(prev, head, nil, false)
		after := b.cfg.newNode(nil)
		b.breakTo = append(b.breakTo, after)
		b.buildCases(st.Body.List, head, after, st.Tag == nil)
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			prev = b.stmt(st.Init, prev)
		}
		head := b.cfg.nodeFor(st)
		b.edge(prev, head, nil, false)
		after := b.cfg.newNode(nil)
		b.breakTo = append(b.breakTo, after)
		b.buildCases(st.Body.List, head, after, false)
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.SelectStmt:
		head := b.cfg.nodeFor(st)
		b.edge(prev, head, nil, false)
		after := b.cfg.newNode(nil)
		b.breakTo = append(b.breakTo, after)
		for _, cc := range st.Body.List {
			comm := cc.(*ast.CommClause)
			entry := b.cfg.newNode(nil)
			b.edge(head, entry, nil, false)
			cur := entry
			if comm.Comm != nil {
				cur = b.stmt(comm.Comm, entry)
			}
			out := b.stmts(comm.Body, cur, nil)
			b.edge(out, after, nil, false)
		}
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		if len(st.Body.List) == 0 {
			b.edge(head, after, nil, false)
		}
		if len(after.Preds) == 0 {
			return nil
		}
		return after

	case *ast.ReturnStmt:
		n := b.cfg.nodeFor(st)
		b.edge(prev, n, nil, false)
		b.edge(n, b.cfg.Exit, nil, false)
		return nil

	case *ast.BranchStmt:
		n := b.cfg.nodeFor(st)
		b.edge(prev, n, nil, false)
		switch st.Tok {
		case token.BREAK:
			if st.Label != nil {
				b.edge(n, b.labelBreak[st.Label.Name], nil, false)
			} else if len(b.breakTo) > 0 {
				b.edge(n, b.breakTo[len(b.breakTo)-1], nil, false)
			}
		case token.CONTINUE:
			if st.Label != nil {
				b.edge(n, b.labelContinue[st.Label.Name], nil, false)
			} else if len(b.continueTo) > 0 {
				b.edge(n, b.continueTo[len(b.continueTo)-1], nil, false)
			}
		case token.GOTO:
			if st.Label != nil {
				b.edge(n, b.labelStmt[st.Label.Name], nil, false)
			}
		case token.FALLTHROUGH:
			// handled structurally by buildCases; treated as fall-through.
			return n
		}
		return nil

	case *ast.ExprStmt:
		n := b.cfg.nodeFor(st)
		b.edge(prev, n, nil, false)
		if isTerminalCall(st.X) {
			b.edge(n, b.cfg.Exit, nil, false)
			return nil
		}
		return n

	default:
		// Assignments, declarations, sends, inc/dec, defer, go, empty:
		// straight-line statements.
		n := b.cfg.nodeFor(s)
		b.edge(prev, n, nil, false)
		return n
	}
}

// labeledInner builds the statement under a label, registering the label as a
// continue/break target when it is a loop.
func (b *cfgBuilder) labeledInner(label string, s ast.Stmt, prev *CFGNode) *CFGNode {
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		// The loop head node doubles as the labeled-continue target; the
		// labeled-break target was installed by the caller. Register the
		// continue target before building so inner statements resolve it.
		head := b.cfg.nodeFor(s)
		b.labelContinue[label] = head
	}
	return b.stmt(s, prev)
}

// buildCases wires switch/type-switch case clauses: the head branches to
// every clause; a clause without fallthrough exits to after; an absent
// default clause adds a head->after edge.
func (b *cfgBuilder) buildCases(clauses []ast.Stmt, head, after *CFGNode, _ bool) {
	hasDefault := false
	// Pre-create entries so fallthrough can target the next clause.
	entries := make([]*CFGNode, len(clauses))
	for i := range clauses {
		entries[i] = b.cfg.newNode(nil)
	}
	for i, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, entries[i], nil, false)
		out := b.stmts(cc.Body, entries[i], nil)
		if out != nil {
			if fallsThrough(cc.Body) && i+1 < len(clauses) {
				b.edge(out, entries[i+1], nil, false)
			} else {
				b.edge(out, after, nil, false)
			}
		}
	}
	if !hasDefault {
		b.edge(head, after, nil, false)
	}
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) pushLoop(brk, cont *CFGNode) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, cont)
}

func (b *cfgBuilder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

// isTerminalCall reports whether an expression statement never returns:
// panic(...), os.Exit(...), log.Fatal*(...), (*testing.T).Fatal* are the
// forms that appear in this codebase.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		name := fn.Sel.Name
		if name == "Exit" || strings.HasPrefix(name, "Fatal") {
			return true
		}
	}
	return false
}

// reversePostorder lists the nodes reachable from Entry, each before its
// successors except along back edges: the visiting order of GuardFacts.
func (c *CFG) reversePostorder() []*CFGNode {
	seen := make([]bool, len(c.Nodes))
	var post []*CFGNode
	var dfs func(n *CFGNode)
	dfs = func(n *CFGNode) {
		seen[n.Index] = true
		for _, e := range n.Succs {
			if !seen[e.To.Index] {
				dfs(e.To)
			}
		}
		post = append(post, n)
	}
	dfs(c.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// --- Guard facts (forward must-analysis) ---

// Guard fact kinds. Facts are strings so the set algebra stays trivial:
//
//	"nonnil:<expr>"  — <expr> proven non-nil on every path reaching here
//	"isnil:<expr>"   — <expr> proven nil (the lazy-init branch)
//	"capgrow"        — inside a branch taken only when a cap/len watermark
//	                   check demanded growth (the cold allocation path)
const (
	factNonNil  = "nonnil:"
	factIsNil   = "isnil:"
	factCapGrow = "capgrow"
)

type factSet map[string]bool

func (f factSet) clone() factSet {
	g := make(factSet, len(f))
	for k := range f {
		g[k] = true
	}
	return g
}

// Guards holds the per-node incoming guard facts of one CFG.
type Guards struct {
	cfg *CFG
	in  []factSet // node index -> facts that must hold on entry to the node
}

// GuardFacts computes the guard-fact dataflow. info may be nil; it is only
// used to pretty up nothing today but kept for future type-sensitive facts.
func (c *CFG) GuardFacts(info *types.Info) *Guards {
	g := &Guards{cfg: c, in: make([]factSet, len(c.Nodes))}
	// Universe = every fact any edge can generate.
	universe := factSet{}
	edgeFacts := make(map[*CFGEdge]factSet)
	for _, n := range c.Nodes {
		for _, e := range n.Succs {
			if e.Cond == nil {
				continue
			}
			fs := factSet{}
			condFacts(e.Cond, e.Branch, fs)
			if len(fs) > 0 {
				edgeFacts[e] = fs
				for k := range fs {
					universe[k] = true
				}
			}
		}
	}
	for i := range g.in {
		g.in[i] = universe.clone()
	}
	g.in[c.Entry.Index] = factSet{}
	rpo := c.reversePostorder()
	for changed := true; changed; {
		changed = false
		for _, n := range rpo {
			if n == c.Entry {
				continue
			}
			var merged factSet
			for _, e := range n.Preds {
				pOut := g.out(e.From)
				if ef := edgeFacts[e]; ef != nil {
					pOut = pOut.clone()
					for k := range ef {
						pOut[k] = true
					}
				}
				if merged == nil {
					merged = pOut.clone()
				} else {
					for k := range merged {
						if !pOut[k] {
							delete(merged, k)
						}
					}
				}
			}
			if merged == nil {
				merged = universe.clone()
			}
			if !sameFacts(g.in[n.Index], merged) {
				g.in[n.Index] = merged
				changed = true
			}
		}
	}
	return g
}

// out applies the node's kill set (assignments invalidate facts about the
// assigned expression and anything rooted in it) to its incoming facts.
func (g *Guards) out(n *CFGNode) factSet {
	in := g.in[n.Index]
	kills := killedExprs(n.Stmt)
	if len(kills) == 0 {
		return in
	}
	out := in.clone()
	for k := range out {
		expr := k
		if i := strings.IndexByte(k, ':'); i >= 0 {
			expr = k[i+1:]
		}
		for _, killed := range kills {
			if expr == killed || strings.HasPrefix(expr, killed+".") || strings.HasPrefix(expr, killed+"[") {
				delete(out, k)
				break
			}
		}
	}
	return out
}

func killedExprs(s ast.Stmt) []string {
	var out []string
	switch st := s.(type) {
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			out = append(out, exprKey(l))
		}
	case *ast.IncDecStmt:
		out = append(out, exprKey(st.X))
	case *ast.RangeStmt:
		if st.Key != nil {
			out = append(out, exprKey(st.Key))
		}
		if st.Value != nil {
			out = append(out, exprKey(st.Value))
		}
	}
	return out
}

// Has reports whether fact holds on entry to the statement's node. Statements
// outside the CFG (nested FuncLits) report false.
func (g *Guards) Has(s ast.Stmt, fact string) bool {
	n := g.cfg.NodeFor(s)
	if n == nil {
		return false
	}
	return g.in[n.Index][fact]
}

// HasPrefix reports whether any fact with the given prefix holds on entry to
// the statement's node.
func (g *Guards) HasPrefix(s ast.Stmt, prefix string) bool {
	n := g.cfg.NodeFor(s)
	if n == nil {
		return false
	}
	for k := range g.in[n.Index] {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// NonNil reports whether expr (by canonical ExprString) is proven non-nil on
// entry to the statement.
func (g *Guards) NonNil(s ast.Stmt, expr string) bool {
	return g.Has(s, factNonNil+expr)
}

func sameFacts(a, b factSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// condFacts decomposes a branch condition taken with the given truth value
// into guard facts.
func condFacts(cond ast.Expr, taken bool, out factSet) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			condFacts(e.X, !taken, out)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if taken { // both conjuncts hold
				condFacts(e.X, true, out)
				condFacts(e.Y, true, out)
			}
		case token.LOR:
			if !taken { // both disjuncts failed
				condFacts(e.X, false, out)
				condFacts(e.Y, false, out)
			}
		case token.EQL, token.NEQ:
			x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
			var other ast.Expr
			if isNilIdent(y) {
				other = x
			} else if isNilIdent(x) {
				other = y
			}
			if other != nil {
				isEq := e.Op == token.EQL
				if isEq == taken { // proven nil
					out[factIsNil+exprKey(other)] = true
				} else { // proven non-nil
					out[factNonNil+exprKey(other)] = true
				}
				return
			}
			fallthrough
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			// A comparison involving cap()/len() marks the taken branch that
			// demands growth (e.g. `cap(s) < n`, `len(s) == 0`) as the cold
			// watermark path.
			if taken && (isSizeCall(e.X) || isSizeCall(e.Y)) {
				out[factCapGrow] = true
			}
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isSizeCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && (id.Name == "cap" || id.Name == "len")
}

// exprKey is the canonical string identity used for guard facts and receiver
// matching: types.ExprString over the (unparenthesized) expression.
func exprKey(e ast.Expr) string {
	return types.ExprString(ast.Unparen(e))
}
