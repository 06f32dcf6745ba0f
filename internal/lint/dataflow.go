// Intra-procedural dataflow engine: CFG construction over go/ast plus a
// forward worklist fixpoint over per-variable facts.
//
// The PR 4 analyzers are syntactic pattern matchers; the sim-core's pooled
// packets and events have a PATH-sensitive contract — "a packet must not be
// used after its release *along any execution path*". This file gives
// poolsafe an SSA-lite substrate for that check:
//
//   - buildCFG turns one function body into basic blocks of "simple" nodes
//     (plain statements and control-header expressions) connected by the
//     possible control-flow edges, including loop back edges, switch/select
//     fan-out, break/continue (labeled too) and panic/return terminators.
//   - funcCFG.forward runs a classic reaching-definitions-style worklist to
//     a fixed point: facts are a map from variable (types.Object) to a fact
//     bitmask, the join is bitwise-or per variable (may-analysis), and the
//     analyzer's transfer function generates and kills facts per node.
//   - funcCFG.replay walks every reachable block once more from its stable
//     in-state so the analyzer can report at the exact node where a bad
//     state is observed, with the same transfer function — check and
//     transfer can never disagree.
//
// The engine is deliberately intra-procedural: calls are opaque (a callee
// neither releases nor retains unless the analyzer says so), which keeps
// the analyzers fast, deterministic and explainable. goto is treated as a
// terminator (its facts are conservatively dropped); the repo has none.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// varFact is a bitmask of analyzer-specific facts about one variable. The
// fact space is shared so every analyzer can ride the same flowState; each
// analyzer documents the bits it uses.
type varFact uint16

const (
	// poolsafe
	factPooled   varFact = 1 << iota // holds the result of a pool Get/alloc
	factReleased                     // release was called on it
	factEscaped                      // a retaining reference escaped (field/slice/map/closure)
	factLent                         // a packet lent to a netsim callback, or a copy of that pointer
)

// flowState maps variables to their current facts. The absence of an entry
// is the bottom fact (nothing known).
type flowState map[types.Object]varFact

func (s flowState) clone() flowState {
	c := make(flowState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// joinFrom merges src into s with per-variable bitwise-or (the may-analysis
// join) and reports whether s changed. Monotone, so the fixpoint terminates.
func (s flowState) joinFrom(src flowState) bool {
	changed := false
	for k, v := range src {
		if old, ok := s[k]; !ok || old|v != old {
			s[k] = old | v
			changed = true
		}
	}
	return changed
}

// cfgBlock is one basic block: simple nodes in execution order plus the
// possible successors.
type cfgBlock struct {
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body. exit is a virtual
// empty block every return/panic/fallthrough-off-the-end edge targets.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock // creation order: deterministic iteration for reporting
}

// buildCFG constructs the CFG of one function body. The nodes stored in
// blocks are either plain statements (assignments, calls, sends, returns,
// declarations, defers), control-header expressions (if/for conditions,
// switch tags, case expressions, range operands) or a *ast.RangeStmt
// header marker standing for the per-iteration key/value (re)definition —
// never a compound statement, so transfer functions can inspect each node
// in full without double-visiting a nested body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{exit: &cfgBlock{}}
	b := &cfgBuilder{g: g,
		labelBreak: make(map[string]*cfgBlock),
		labelCont:  make(map[string]*cfgBlock),
	}
	g.entry = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	b.link(b.cur, g.exit)
	g.blocks = append(g.blocks, g.exit)
	return g
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock

	breaks     []*cfgBlock // innermost-last break targets (loops, switch, select)
	continues  []*cfgBlock // innermost-last continue targets (loops)
	labelBreak map[string]*cfgBlock
	labelCont  map[string]*cfgBlock
	label      string // pending label for the next loop/switch statement
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

// takeLabel consumes the pending label of a labeled loop/switch statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.LabeledStmt:
		b.label = st.Label.Name
		b.stmt(st.Stmt)
		b.label = ""

	case *ast.IfStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Cond)
		cond := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.link(cond, then)
		b.cur = then
		b.stmtList(st.Body.List)
		b.link(b.cur, join)
		if st.Else != nil {
			els := b.newBlock()
			b.link(cond, els)
			b.cur = els
			b.stmt(st.Else)
			b.link(b.cur, join)
		} else {
			b.link(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.add(st.Init)
		}
		head := b.newBlock()
		b.link(b.cur, head)
		b.cur = head
		if st.Cond != nil {
			b.add(st.Cond)
		}
		bodyB := b.newBlock()
		postB := b.newBlock()
		exitB := b.newBlock()
		b.link(head, bodyB)
		// Conservative: even `for {}` gets an exit edge; a missing path
		// only weakens facts, never fabricates them.
		b.link(head, exitB)
		b.pushLoop(exitB, postB, label)
		b.cur = bodyB
		b.stmtList(st.Body.List)
		b.popLoop(label)
		b.link(b.cur, postB)
		b.cur = postB
		if st.Post != nil {
			b.add(st.Post)
		}
		b.link(postB, head)
		b.cur = exitB

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(st.X)
		head := b.newBlock()
		b.link(b.cur, head)
		// The RangeStmt itself marks the per-iteration key/value
		// (re)definition; transfer functions treat it as a kill of the
		// iteration variables and must not descend into X or Body.
		head.nodes = append(head.nodes, st)
		bodyB := b.newBlock()
		exitB := b.newBlock()
		b.link(head, bodyB)
		b.link(head, exitB)
		b.pushLoop(exitB, head, label)
		b.cur = bodyB
		b.stmtList(st.Body.List)
		b.popLoop(label)
		b.link(b.cur, head)
		b.cur = exitB

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		label := b.takeLabel()
		var bodyList []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				b.add(sw.Init)
			}
			if sw.Tag != nil {
				b.add(sw.Tag)
			}
			bodyList = sw.Body.List
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				b.add(sw.Init)
			}
			b.add(sw.Assign)
			bodyList = sw.Body.List
		}
		cond := b.cur
		join := b.newBlock()
		b.pushBreak(join, label)
		hasDefault := false
		var fall *cfgBlock // previous case body end, when it falls through
		for _, cs := range bodyList {
			cc, ok := cs.(*ast.CaseClause)
			if !ok {
				continue
			}
			caseB := b.newBlock()
			b.link(cond, caseB)
			if fall != nil {
				b.link(fall, caseB)
				fall = nil
			}
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				caseB.nodes = append(caseB.nodes, e)
			}
			b.cur = caseB
			b.stmtList(cc.Body)
			if endsInFallthrough(cc.Body) {
				fall = b.cur
			} else {
				b.link(b.cur, join)
			}
		}
		if fall != nil {
			b.link(fall, join)
		}
		if !hasDefault {
			b.link(cond, join)
		}
		b.popBreak(label)
		b.cur = join

	case *ast.SelectStmt:
		label := b.takeLabel()
		cond := b.cur
		join := b.newBlock()
		b.pushBreak(join, label)
		for _, cs := range st.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			clauseB := b.newBlock()
			b.link(cond, clauseB)
			b.cur = clauseB
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.link(b.cur, join)
		}
		if len(st.Body.List) == 0 {
			b.link(cond, join)
		}
		b.popBreak(label)
		b.cur = join

	case *ast.ReturnStmt:
		b.add(st)
		b.link(b.cur, b.g.exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			target := b.g.exit
			if st.Label != nil {
				if t, ok := b.labelBreak[st.Label.Name]; ok {
					target = t
				}
			} else if n := len(b.breaks); n > 0 {
				target = b.breaks[n-1]
			}
			b.link(b.cur, target)
			b.cur = b.newBlock()
		case token.CONTINUE:
			target := b.g.exit
			if st.Label != nil {
				if t, ok := b.labelCont[st.Label.Name]; ok {
					target = t
				}
			} else if n := len(b.continues); n > 0 {
				target = b.continues[n-1]
			}
			b.link(b.cur, target)
			b.cur = b.newBlock()
		case token.GOTO:
			// Conservative terminator: facts die here rather than flow
			// along an edge the builder does not model.
			b.link(b.cur, b.g.exit)
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Edge added by the switch builder.
		}

	case *ast.ExprStmt:
		b.add(st)
		if isPanicCall(st.X) {
			b.link(b.cur, b.g.exit)
			b.cur = b.newBlock()
		}

	default:
		// Assign, IncDec, Send, Decl, Defer, Go, Empty: simple nodes.
		b.add(s)
	}
}

func (b *cfgBuilder) pushLoop(brk, cont *cfgBlock, label string) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		b.labelBreak[label] = brk
		b.labelCont[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelCont, label)
	}
}

func (b *cfgBuilder) pushBreak(brk *cfgBlock, label string) {
	b.breaks = append(b.breaks, brk)
	if label != "" {
		b.labelBreak[label] = brk
	}
}

func (b *cfgBuilder) popBreak(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	if label != "" {
		delete(b.labelBreak, label)
	}
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	bs, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && bs.Tok == token.FALLTHROUGH
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// forward runs the transfer function over the CFG to a fixed point and
// returns every reachable block's stable in-state. transfer mutates the
// state in place; it must be deterministic and monotone in the facts it
// generates (kills are fine — the join re-adds facts from other paths).
func (g *funcCFG) forward(entry flowState, transfer func(n ast.Node, s flowState)) map[*cfgBlock]flowState {
	in := map[*cfgBlock]flowState{g.entry: entry}
	queued := map[*cfgBlock]bool{g.entry: true}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := in[blk].clone()
		for _, n := range blk.nodes {
			transfer(n, out)
		}
		for _, succ := range blk.succs {
			s, ok := in[succ]
			if !ok {
				in[succ] = out.clone()
			} else if !s.joinFrom(out) {
				continue
			}
			if !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// replay walks each reachable block once in deterministic creation order,
// calling visit before transfer on every node with the exact state the
// fixpoint computed. Analyzers report their findings from visit.
func (g *funcCFG) replay(in map[*cfgBlock]flowState,
	transfer func(n ast.Node, s flowState), visit func(n ast.Node, s flowState)) {
	for _, blk := range g.blocks {
		state, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		s := state.clone()
		for _, n := range blk.nodes {
			visit(n, s)
			transfer(n, s)
		}
	}
}

// --- shared expression helpers for the dataflow analyzers ---

// inspectNoFuncLit walks the subtree like ast.Inspect but does not descend
// into function literals: a closure body is a separate function for the
// intra-procedural analyses (captures are handled explicitly).
func inspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// freeVars returns the objects referenced inside the function literal that
// are declared outside it — the closure's captured variables.
func freeVars(p *Package, fl *ast.FuncLit) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || obj.Pos() == token.NoPos {
			return true
		}
		if obj.Pos() < fl.Pos() || obj.Pos() >= fl.End() {
			out[obj] = true
		}
		return true
	})
	return out
}

// isImmediatelyInvoked reports whether parent is a call whose Fun is the
// literal itself (func(){...}() runs synchronously; capturing is harmless).
func isImmediatelyInvoked(parent ast.Node, fl *ast.FuncLit) bool {
	call, ok := parent.(*ast.CallExpr)
	return ok && call.Fun == fl
}
