package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseFunc type-checks one source file and returns the body of the named
// function, its FileSet, and the objects of its local variables keyed by
// name. The CFG and fixpoint engine are exercised directly, without the
// analyzer layer.
func parseFunc(t *testing.T, src, name string) (*ast.BlockStmt, *token.FileSet, map[string]types.Object) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flow.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	vars := make(map[string]types.Object)
	for id, obj := range info.Defs {
		if _, ok := obj.(*types.Var); ok {
			vars[id.Name] = obj
		}
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body, fset, vars
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil, nil
}

// markTransfer sets fact on obj whenever a node's source mentions marker, and
// kills it whenever the source mentions killer. Good enough to trace which
// facts survive which CFG paths.
func markTransfer(fset *token.FileSet, src string, obj types.Object, marker, killer string) func(ast.Node, flowState) {
	return func(n ast.Node, s flowState) {
		text := nodeText(fset, src, n)
		if marker != "" && strings.Contains(text, marker) {
			s[obj] |= factPooled
		}
		if killer != "" && strings.Contains(text, killer) {
			delete(s, obj)
		}
	}
}

func nodeText(fset *token.FileSet, src string, n ast.Node) string {
	if n == nil {
		return ""
	}
	lo := fset.Position(n.Pos()).Offset
	hi := fset.Position(n.End()).Offset
	if lo < 0 || hi > len(src) || lo > hi {
		return ""
	}
	return src[lo:hi]
}

// collectVisited replays the CFG and returns the source text of every node
// the engine visits, in deterministic block-creation order.
func collectVisited(g *funcCFG, in map[*cfgBlock]flowState, fset *token.FileSet, src string) []string {
	var visited []string
	g.replay(in, func(ast.Node, flowState) {}, func(n ast.Node, s flowState) {
		visited = append(visited, nodeText(fset, src, n))
	})
	return visited
}

// TestCFGReturnUnreachable asserts statements after an unconditional return
// land in a block the fixpoint never reaches: no facts flow into them and
// replay skips them.
func TestCFGReturnUnreachable(t *testing.T) {
	src := `package p
func f() int {
	x := 1
	return x
	x = 2 //nolint
	return x
}`
	body, fset, _ := parseFunc(t, src, "f")
	g := buildCFG(body)
	in := g.forward(make(flowState), func(ast.Node, flowState) {})
	for _, text := range collectVisited(g, in, fset, src) {
		if strings.Contains(text, "x = 2") {
			t.Fatalf("statement after return was treated as reachable: %q", text)
		}
	}
}

// TestCFGPanicTerminates asserts panic(...) ends its block like return: the
// code after it is unreachable, so facts from the panicking path never merge
// into the rest of the function.
func TestCFGPanicTerminates(t *testing.T) {
	src := `package p
func f(bad bool) int {
	x := 1
	if bad {
		panic("no")
		x = 99
	}
	return x
}`
	body, fset, _ := parseFunc(t, src, "f")
	g := buildCFG(body)
	in := g.forward(make(flowState), func(ast.Node, flowState) {})
	for _, text := range collectVisited(g, in, fset, src) {
		if strings.Contains(text, "x = 99") {
			t.Fatalf("statement after panic was treated as reachable: %q", text)
		}
	}
}

// TestCFGLoopBackEdge asserts a fact generated inside a loop body flows along
// the back edge: on re-entry the loop header observes it, which is exactly
// what lets poolsafe catch a release in iteration i followed by a use in i+1.
func TestCFGLoopBackEdge(t *testing.T) {
	src := `package p
func f(n int) {
	x := 0
	for i := 0; i < n; i++ {
		mark := x
		_ = mark
	}
}`
	body, fset, vars := parseFunc(t, src, "f")
	obj := vars["x"]
	if obj == nil {
		t.Fatal("variable x not found")
	}
	transfer := markTransfer(fset, src, obj, "mark := x", "")
	g := buildCFG(body)
	in := g.forward(make(flowState), transfer)
	// The condition i < n is re-evaluated after the body: its in-state must
	// carry the fact set inside the body, proving the back edge joined.
	sawCondWithFact := false
	g.replay(in, transfer, func(n ast.Node, s flowState) {
		if nodeText(fset, src, n) == "i < n" && s[obj]&factPooled != 0 {
			sawCondWithFact = true
		}
	})
	if !sawCondWithFact {
		t.Fatal("fact generated in the loop body did not flow along the back edge to the header")
	}
}

// TestCFGBranchJoin asserts the may-join: a fact set on only one arm of an if
// survives the merge (bitwise-or), while a kill on one arm does not erase the
// fact flowing around the other arm.
func TestCFGBranchJoin(t *testing.T) {
	src := `package p
func f(c bool) {
	x := 0
	if c {
		mark := x
		_ = mark
	}
	after := x
	_ = after
}`
	body, fset, vars := parseFunc(t, src, "f")
	obj := vars["x"]
	transfer := markTransfer(fset, src, obj, "mark := x", "")
	g := buildCFG(body)
	in := g.forward(make(flowState), transfer)
	sawAfterWithFact := false
	g.replay(in, transfer, func(n ast.Node, s flowState) {
		if strings.Contains(nodeText(fset, src, n), "after := x") && s[obj]&factPooled != 0 {
			sawAfterWithFact = true
		}
	})
	if !sawAfterWithFact {
		t.Fatal("fact set on one branch arm did not survive the may-join")
	}
}

// TestCFGKillOneArm asserts a kill on one arm leaves the fact reachable via
// the other arm after the join — the may-analysis keeps the dangerous path.
func TestCFGKillOneArm(t *testing.T) {
	src := `package p
func f(c bool) {
	x := 0
	mark := x
	_ = mark
	if c {
		kill := x
		_ = kill
	}
	after := x
	_ = after
}`
	body, fset, vars := parseFunc(t, src, "f")
	obj := vars["x"]
	transfer := markTransfer(fset, src, obj, "mark := x", "kill := x")
	g := buildCFG(body)
	in := g.forward(make(flowState), transfer)
	sawAfterWithFact := false
	g.replay(in, transfer, func(n ast.Node, s flowState) {
		if strings.Contains(nodeText(fset, src, n), "after := x") && s[obj]&factPooled != 0 {
			sawAfterWithFact = true
		}
	})
	if !sawAfterWithFact {
		t.Fatal("kill on one arm erased the fact flowing around the other arm")
	}
}

// TestCFGBreakSkipsRest asserts break routes facts to the loop exit without
// flowing through the remainder of the body.
func TestCFGBreakSkipsRest(t *testing.T) {
	src := `package p
func f(n int) {
	x := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			mark := x
			_ = mark
			break
		}
		kill := x
		_ = kill
	}
	after := x
	_ = after
}`
	body, fset, vars := parseFunc(t, src, "f")
	obj := vars["x"]
	transfer := markTransfer(fset, src, obj, "mark := x", "kill := x")
	g := buildCFG(body)
	in := g.forward(make(flowState), transfer)
	sawAfterWithFact := false
	g.replay(in, transfer, func(n ast.Node, s flowState) {
		if strings.Contains(nodeText(fset, src, n), "after := x") && s[obj]&factPooled != 0 {
			sawAfterWithFact = true
		}
	})
	if !sawAfterWithFact {
		t.Fatal("fact carried by break did not reach the statement after the loop")
	}
}

// TestCFGSwitchFanOut asserts every case body receives the pre-switch state
// and their outcomes join after the switch.
func TestCFGSwitchFanOut(t *testing.T) {
	src := `package p
func f(n int) {
	x := 0
	switch n {
	case 1:
		kill := x
		_ = kill
	case 2:
		mark := x
		_ = mark
	}
	after := x
	_ = after
}`
	body, fset, vars := parseFunc(t, src, "f")
	obj := vars["x"]
	transfer := markTransfer(fset, src, obj, "mark := x", "kill := x")
	g := buildCFG(body)
	in := g.forward(make(flowState), transfer)
	sawAfterWithFact := false
	g.replay(in, transfer, func(n ast.Node, s flowState) {
		if strings.Contains(nodeText(fset, src, n), "after := x") && s[obj]&factPooled != 0 {
			sawAfterWithFact = true
		}
	})
	if !sawAfterWithFact {
		t.Fatal("fact set in one switch case did not survive the post-switch join")
	}
}

// TestJoinFrom pins the flowState lattice operations directly.
func TestJoinFrom(t *testing.T) {
	a := types.NewVar(token.NoPos, nil, "a", types.Typ[types.Int])
	b := types.NewVar(token.NoPos, nil, "b", types.Typ[types.Int])
	s := flowState{a: factPooled}
	src := flowState{a: factReleased, b: factLent}
	if !s.joinFrom(src) {
		t.Fatal("joinFrom reported no change when merging new facts")
	}
	if s[a] != factPooled|factReleased || s[b] != factLent {
		t.Fatalf("joinFrom merged wrong facts: a=%b b=%b", s[a], s[b])
	}
	if s.joinFrom(src) {
		t.Fatal("joinFrom reported a change on an already-subsumed merge; the fixpoint would not terminate")
	}
	c := s.clone()
	c[a] |= factEscaped
	if s[a]&factEscaped != 0 {
		t.Fatal("clone shares storage with the original state")
	}
}
