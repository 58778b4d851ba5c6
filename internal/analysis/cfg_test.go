package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFuncBody type-checks a single function body given as Go source and
// returns it with the resolved type info (guard facts need types for the
// cap/len and package-name resolution).
func parseFuncBody(t testing.TB, params, body string) (*ast.BlockStmt, *types.Info) {
	t.Helper()
	src := "package p\nfunc f(" + params + ") {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	// Type errors are tolerated: the CFG is syntactic and the guard facts
	// degrade gracefully on missing info.
	_, _ = conf.Check("p", fset, []*ast.File{file}, info)
	fd := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return fd.Body, info
}

// reach returns the nodes a walk along Succs from Entry visits without
// entering avoid (nil avoids nothing).
func reach(cfg *CFG, avoid *CFGNode) map[*CFGNode]bool {
	seen := map[*CFGNode]bool{}
	var walk func(n *CFGNode)
	walk = func(n *CFGNode) {
		if n == avoid || seen[n] {
			return
		}
		seen[n] = true
		for _, e := range n.Succs {
			walk(e.To)
		}
	}
	walk(cfg.Entry)
	return seen
}

// TestCFGStraightLine: sequential statements chain entry -> s1 -> ... -> exit,
// each with its successor as its only edge.
func TestCFGStraightLine(t *testing.T) {
	body, _ := parseFuncBody(t, "", `
a := 1
b := a + 1
_ = b`)
	cfg := BuildCFG(body)
	live := reach(cfg, nil)
	only := func(from, to *CFGNode) bool {
		return len(from.Succs) == 1 && from.Succs[0].To == to && len(to.Preds) == 1
	}
	var prev *CFGNode = cfg.Entry
	for i, s := range body.List {
		n := cfg.NodeFor(s)
		if n == nil {
			t.Fatalf("statement %d has no CFG node", i)
		}
		if !live[n] {
			t.Errorf("statement %d unreachable", i)
		}
		if !only(prev, n) {
			t.Errorf("node %d does not lead only to statement %d", prev.Index, i)
		}
		prev = n
	}
	if !only(prev, cfg.Exit) {
		t.Error("last statement does not lead only to exit")
	}
}

// TestCFGBranchJoin: an if/else head branches true and false on its
// condition, and the join is reached through either arm alone.
func TestCFGBranchJoin(t *testing.T) {
	body, _ := parseFuncBody(t, "c bool", `
if c {
	a := 1
	_ = a
} else {
	b := 2
	_ = b
}
join := 3
_ = join`)
	cfg := BuildCFG(body)
	ifStmt := body.List[0].(*ast.IfStmt)
	head := cfg.NodeFor(ifStmt)
	thenN := cfg.NodeFor(ifStmt.Body.List[0])
	elseN := cfg.NodeFor(ifStmt.Else.(*ast.BlockStmt).List[0])
	join := cfg.NodeFor(body.List[1])
	live := reach(cfg, nil)
	for name, n := range map[string]*CFGNode{"then": thenN, "else": elseN, "join": join} {
		if !live[n] {
			t.Errorf("%s unreachable", name)
		}
	}
	if len(head.Succs) != 2 {
		t.Fatalf("if head has %d successors, want 2", len(head.Succs))
	}
	for i, e := range head.Succs {
		if e.Cond != ifStmt.Cond || e.Branch != (i == 0) {
			t.Errorf("if head edge %d: cond %v branch %v, want the condition's %v arm", i, e.Cond, e.Branch, i == 0)
		}
	}
	if !reach(cfg, thenN)[join] {
		t.Error("the join must be reachable through the else-arm alone")
	}
	if !reach(cfg, elseN)[join] {
		t.Error("the join must be reachable through the then-arm alone")
	}
}

// TestCFGEarlyReturn: code after `if c { return }` stays reachable via the
// false edge; the return itself leads straight to exit.
func TestCFGEarlyReturn(t *testing.T) {
	body, _ := parseFuncBody(t, "c bool", `
if c {
	return
}
after := 1
_ = after`)
	cfg := BuildCFG(body)
	after := cfg.NodeFor(body.List[1])
	ret := cfg.NodeFor(body.List[0].(*ast.IfStmt).Body.List[0])
	if !reach(cfg, ret)[after] {
		t.Error("statement after guarded return must be reachable past the return")
	}
	if len(ret.Succs) != 1 || ret.Succs[0].To != cfg.Exit {
		t.Error("return must lead only to exit")
	}
}

// TestCFGTerminalCall: panic terminates flow, making the rest unreachable.
func TestCFGTerminalCall(t *testing.T) {
	body, _ := parseFuncBody(t, "", `
a := 1
_ = a
panic("x")
dead := 2
_ = dead`)
	cfg := BuildCFG(body)
	dead := cfg.NodeFor(body.List[3])
	if reach(cfg, nil)[dead] {
		t.Error("statement after panic must be unreachable")
	}
}

// TestCFGLoop: the body's post statement leads back to the loop head, and
// the code after the loop is reachable without running the body (the
// head's false edge) and through the break.
func TestCFGLoop(t *testing.T) {
	body, _ := parseFuncBody(t, "", `
sum := 0
for i := 0; i < 10; i++ {
	if i == 5 {
		break
	}
	sum += i
}
_ = sum`)
	cfg := BuildCFG(body)
	loop := body.List[1].(*ast.ForStmt)
	head := cfg.NodeFor(loop)
	work := cfg.NodeFor(loop.Body.List[1])
	after := cfg.NodeFor(body.List[2])
	live := reach(cfg, nil)
	if !live[work] || !live[after] {
		t.Fatal("loop body and after-loop must be reachable")
	}
	if post := cfg.NodeFor(loop.Post); len(post.Succs) != 1 || post.Succs[0].To != head {
		t.Error("the post statement must lead back to the loop head")
	}
	if !reach(cfg, work)[after] {
		t.Error("the statement after the loop must be reachable without the body")
	}
	brk := cfg.NodeFor(loop.Body.List[0].(*ast.IfStmt).Body.List[0])
	exits := map[*CFGNode]bool{}
	for _, e := range after.Preds[0].From.Preds { // the loop's exit node
		exits[e.From] = true
	}
	if len(exits) != 2 || !exits[head] || !exits[brk] {
		t.Error("the loop must exit through the head's false edge and the break only")
	}
}

// TestGuardFacts: the lazy-init and watermark guard facts hold inside their
// guarded branches and nowhere after the join; nil-check facts flow to the
// guarded use.
func TestGuardFacts(t *testing.T) {
	body, info := parseFuncBody(t, "xs []int, n int, p *int", `
if cap(xs) < n {
	xs = make([]int, n)
}
if xs == nil {
	xs = make([]int, 1)
}
if p != nil {
	_ = *p
}
_ = xs`)
	cfg := BuildCFG(body)
	guards := cfg.GuardFacts(info)

	capBody := body.List[0].(*ast.IfStmt).Body.List[0]
	if !guards.Has(capBody, factCapGrow) {
		t.Error("capacity-guarded branch lacks the capgrow fact")
	}
	nilBody := body.List[1].(*ast.IfStmt).Body.List[0]
	if !guards.HasPrefix(nilBody, factIsNil) {
		t.Error("nil-guarded lazy-init branch lacks the isnil fact")
	}
	ptrBody := body.List[2].(*ast.IfStmt).Body.List[0]
	if !guards.NonNil(ptrBody, "p") {
		t.Error("p != nil branch lacks the nonnil fact for p")
	}
	join := body.List[3]
	if guards.Has(join, factCapGrow) || guards.HasPrefix(join, factIsNil) || guards.NonNil(join, "p") {
		t.Error("guard facts must not survive past the join")
	}
}

// TestGuardFactKilledByAssignment: assigning to the guarded expression kills
// its facts downstream.
func TestGuardFactKilledByAssignment(t *testing.T) {
	body, info := parseFuncBody(t, "p *int, q *int", `
if p != nil {
	p = q
	_ = *p
}`)
	cfg := BuildCFG(body)
	guards := cfg.GuardFacts(info)
	inner := body.List[0].(*ast.IfStmt).Body
	if !guards.NonNil(inner.List[0], "p") {
		t.Error("fact must hold at the assignment itself (facts are in-sets)")
	}
	if guards.NonNil(inner.List[1], "p") {
		t.Error("assignment to p must kill the nonnil fact")
	}
}

// FuzzCFGBuild: any function body that parses must build a well-formed graph —
// no panics, entry/exit present, every edge endpoint a registered node, and
// GuardFacts' visiting order holding every node reachable from entry once.
func FuzzCFGBuild(f *testing.F) {
	seeds := []string{
		"",
		"a := 1\n_ = a",
		"for {\n}",
		"for i := 0; i < 3; i++ {\nif i == 1 {\ncontinue\n}\nbreak\n}",
		"switch x := 1; x {\ncase 1:\nfallthrough\ncase 2:\ndefault:\n}",
		"outer:\nfor {\nfor {\nbreak outer\n}\n}",
		"goto done\ndone:\nreturn",
		"select {\ncase <-ch:\ndefault:\n}",
		"if a {\nreturn\n} else if b {\npanic(\"x\")\n}\n_ = 1",
		"defer func() {\n}()\ngo run()",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, bodySrc string) {
		src := "package p\nfunc f() {\n" + bodySrc + "\n}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "f.go", src, 0)
		if err != nil {
			t.Skip()
		}
		if len(file.Decls) != 1 {
			t.Skip() // the body broke out of the function braces
		}
		fd, ok := file.Decls[0].(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			t.Skip()
		}
		cfg := BuildCFG(fd.Body)
		if cfg.Entry == nil || cfg.Exit == nil {
			t.Fatal("missing entry/exit")
		}
		known := map[*CFGNode]bool{}
		for _, n := range cfg.Nodes {
			known[n] = true
		}
		for _, n := range cfg.Nodes {
			for _, e := range n.Succs {
				if e.From != n || !known[e.To] {
					t.Fatalf("edge %d->%d not well-formed", e.From.Index, e.To.Index)
				}
			}
			for _, e := range n.Preds {
				if e.To != n || !known[e.From] {
					t.Fatalf("pred edge of node %d not well-formed", n.Index)
				}
			}
		}
		live := reach(cfg, nil)
		rpo := cfg.reversePostorder()
		if len(rpo) != len(live) || rpo[0] != cfg.Entry {
			t.Fatalf("reverse postorder has %d nodes starting at node %d; %d are reachable from entry",
				len(rpo), rpo[0].Index, len(live))
		}
		for _, n := range rpo {
			if !live[n] {
				t.Fatalf("reverse postorder lists unreachable node %d", n.Index)
			}
			delete(live, n)
		}
		if len(live) != 0 {
			t.Fatalf("reverse postorder repeats a node and misses %d", len(live))
		}
	})
}
