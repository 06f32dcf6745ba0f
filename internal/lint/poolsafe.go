package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerPoolSafe enforces the ownership contract of the object pools
// (netsim.PacketPool's Get and Packet.release, sim.Sim's event
// alloc/release), which pool.go states only in prose: a release transfers
// ownership back to the pool. Along every execution path it flags
//
//   - a use of a variable after it was returned to its pool (the pool may
//     already have recycled and reinitialized the object),
//   - a second release of the same variable without an intervening
//     re-definition (double free),
//   - a release after a retaining reference escaped into a struct field,
//     slice, map, array, channel, go/defer call or closure (the pool would
//     recycle an object something still points to), and
//   - the borrow rule of the packet lifecycle: netsim lends a *Packet to a
//     PacketHandler, IngressHook, EgressHook or OnForwarded callback for
//     the duration of the call and recycles it afterwards, so a callback
//     that stores its packet parameter (or a copy of the pointer) into a
//     field, slice, map, channel, go/defer call or closure keeps a pointer
//     to memory that will carry a different packet.
//
// The analysis is the dataflow engine's path-sensitive forward pass: facts
// are per-variable {pooled, released, escaped} bits, so the
// copy-out-then-release idiom (fn := ev.fn; s.release(ev); fn()) and
// branch-separated release/retain paths (chaos drop vs. delayed redeliver)
// pass clean. Calls are opaque: passing a packet to a function neither
// releases nor retains it here. A release inside defer is not analyzed (it
// runs at function end, after every textually later use).
var AnalyzerPoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "no use-after-release, double release, release of an escaped pooled object, or retained borrowed packet",
	Run:  runPoolSafe,
}

const (
	poolOpNone = iota
	poolOpGet
	poolOpRelease
)

// poolCallOf classifies a call as a pool acquire or release: Get on a named
// type whose name ends in "Pool", alloc/release on sim.Sim (the event
// pool), or pkt.release() on netsim.Packet (the packet goes back to the
// pool that issued it, so the released object is the receiver). The
// released/acquired object must be a plain identifier to be tracked.
func poolCallOf(p *Package, call *ast.CallExpr) (op int, arg *ast.Ident) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return poolOpNone, nil
	}
	selection := p.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return poolOpNone, nil
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return poolOpNone, nil
	}
	name := named.Obj().Name()
	isPool := strings.HasSuffix(name, "Pool")
	isSim := name == "Sim" && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "sim"
	switch {
	case isNetsimPacket(named) && sel.Sel.Name == "release" && len(call.Args) == 0:
		id, _ := sel.X.(*ast.Ident)
		return poolOpRelease, id
	case isPool && sel.Sel.Name == "Get" && len(call.Args) == 0:
		return poolOpGet, nil
	case isSim && sel.Sel.Name == "alloc":
		return poolOpGet, nil
	case isSim && sel.Sel.Name == "release" && len(call.Args) == 1:
		id, _ := call.Args[0].(*ast.Ident)
		return poolOpRelease, id
	}
	return poolOpNone, nil
}

func isNetsimPacket(named *types.Named) bool {
	obj := named.Obj()
	return obj.Name() == "Packet" && obj.Pkg() != nil && obj.Pkg().Name() == "netsim"
}

func runPoolSafe(p *Package) []Finding {
	var out []Finding
	callbacks := packetCallbacks(p)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var typ *ast.FuncType
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body, typ = fn.Body, fn.Type
			case *ast.FuncLit:
				body, typ = fn.Body, fn.Type
			default:
				return true
			}
			if body != nil {
				lent := flowState{}
				if callbacks[n] {
					lent = packetParams(p, typ)
				}
				out = append(out, poolSafeFunc(p, body, lent)...)
			}
			return true
		})
	}
	return out
}

// packetCallbacks finds the functions netsim lends packets to: methods
// named HandlePacket, OnIngress or OnEgress (the PacketHandler, IngressHook
// and EgressHook interfaces), and whatever is converted to PacketHandlerFunc
// or passed to an OnForwarded method — a function literal, or a function or
// method of this package named there.
func packetCallbacks(p *Package) map[ast.Node]bool {
	callbacks := make(map[ast.Node]bool)
	named := make(map[types.Object]bool)
	note := func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			callbacks[x] = true
		case *ast.Ident:
			named[p.Info.Uses[x]] = true
		case *ast.SelectorExpr:
			named[p.Info.Uses[x.Sel]] = true
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if tv := p.Info.Types[call.Fun]; tv.IsType() {
				if nt, ok := tv.Type.(*types.Named); ok && nt.Obj().Name() == "PacketHandlerFunc" {
					note(call.Args[0])
				}
			} else if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "OnForwarded" {
				note(call.Args[0])
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case named[p.Info.Defs[fn.Name]]:
				callbacks[fn] = true
			case fn.Recv != nil && (fn.Name.Name == "HandlePacket" || fn.Name.Name == "OnIngress" || fn.Name.Name == "OnEgress"):
				callbacks[fn] = true
			}
		}
	}
	return callbacks
}

// packetParams returns the *netsim.Packet parameters of a callback, marked
// as lent.
func packetParams(p *Package, typ *ast.FuncType) flowState {
	lent := flowState{}
	for _, field := range typ.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if ptr, ok := obj.Type().(*types.Pointer); ok {
				if nt, ok := ptr.Elem().(*types.Named); ok && isNetsimPacket(nt) {
					lent[obj] = factLent
				}
			}
		}
	}
	return lent
}

func poolSafeFunc(p *Package, body *ast.BlockStmt, lent flowState) []Finding {
	// Cheap pre-filter: no pool call and no lent packet, nothing to analyze.
	hasPool := len(lent) > 0
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, _ := poolCallOf(p, call); op != poolOpNone {
				hasPool = true
			}
		}
		return !hasPool
	})
	if !hasPool {
		return nil
	}
	g := buildCFG(body)
	a := &poolFlow{p: p}
	in := g.forward(lent, func(n ast.Node, s flowState) { a.step(n, s, false) })
	a.reporting = true
	g.replay(in,
		func(n ast.Node, s flowState) { a.step(n, s, false) },
		func(n ast.Node, s flowState) { a.step(n, s, true) })
	return a.findings
}

type poolFlow struct {
	p         *Package
	reporting bool
	findings  []Finding
}

// step is both the transfer function and, with check set, the reporting
// visitor — one implementation so they can never disagree. Order inside a
// node: releases first (their own argument is not a "use"), then the
// use-after-release scan, then escapes, then assignment kills/gens.
func (a *poolFlow) step(n ast.Node, s flowState, check bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		// Loop-header marker: the iteration variables are freshly defined
		// on every entry. (rs.X was scanned as its own node.)
		a.kill(s, rs.Key)
		a.kill(s, rs.Value)
		return
	}

	skipUse := make(map[*ast.Ident]bool)

	// 1. Pool releases. A `defer s.release(x)` runs after every later use,
	// so defers are exempt from the release tracking entirely.
	if _, isDefer := n.(*ast.DeferStmt); !isDefer {
		inspectNoFuncLit(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			op, arg := poolCallOf(a.p, call)
			if op != poolOpRelease || arg == nil {
				return true
			}
			obj, isVar := a.p.Info.Uses[arg].(*types.Var)
			if !isVar {
				return true
			}
			// Everything inside the releasing call expression (receiver
			// chain and argument) is evaluated before the release takes
			// effect, so none of it is a use-after-release.
			ast.Inspect(call, func(k ast.Node) bool {
				if id, ok := k.(*ast.Ident); ok {
					skipUse[id] = true
				}
				return true
			})
			fact := s[obj]
			if check {
				switch {
				case fact&factReleased != 0:
					a.report(call.Pos(), arg.Name+" is returned to its pool twice along this path; a pooled object may only be released once per Get")
				case fact&factEscaped != 0:
					a.report(call.Pos(), arg.Name+" is returned to its pool after a reference to it escaped into a field, container, goroutine or closure; the pool would recycle a still-referenced object")
				}
			}
			s[obj] = fact | factReleased
			return true
		})
	}

	// 2. Use-after-release: any remaining read of a released variable.
	a.scanUses(n, s, skipUse, check)

	// 3. Escapes: retaining stores of identifiers.
	a.scanEscapes(n, s, check)

	// 4. Definitions: kills and Get results.
	switch st := n.(type) {
	case *ast.AssignStmt:
		a.assign(st.Lhs, st.Rhs, s)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					a.assign(lhs, vs.Values, s)
				}
			}
		}
	}
}

// scanUses reports reads of released variables. Plain-identifier assignment
// targets are definitions, not reads, and are skipped; so are the arguments
// of the releases handled above and the interiors of function literals
// (captures are escapes, handled separately).
func (a *poolFlow) scanUses(n ast.Node, s flowState, skip map[*ast.Ident]bool, check bool) {
	if !check {
		return
	}
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				skip[id] = true
			}
		}
	}
	inspectNoFuncLit(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || skip[id] || id.Name == "_" {
			return true
		}
		obj := a.p.Info.Uses[id]
		if obj == nil {
			return true
		}
		if s[obj]&factReleased != 0 {
			a.report(id.Pos(), id.Name+" is used after being returned to its pool; the pool may already have recycled it")
			// Report once per path position; clearing keeps one finding
			// per statement rather than one per mention.
			s[obj] &^= factReleased
		}
		return true
	})
}

// scanEscapes marks identifiers whose value is stored somewhere that
// outlives the statement: composite-literal elements, stores through
// selectors/indexes/dereferences, appends, channel sends, go/defer call
// arguments, and closure captures. A lent packet that escapes is reported
// on the spot (with check set): the borrow ends when the callback returns.
func (a *poolFlow) scanEscapes(n ast.Node, s flowState, check bool) {
	mark := func(e ast.Expr) {
		if e == nil {
			return
		}
		if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			e = ue.X
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if obj, isVar := a.p.Info.Uses[id].(*types.Var); isVar {
			a.escape(s, obj, id.Pos(), check)
		}
	}

	switch st := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range st.Lhs {
			if _, ok := lhs.(*ast.Ident); ok {
				continue
			}
			// Store through a field, index, or pointer target.
			if i < len(st.Rhs) {
				mark(st.Rhs[i])
			} else if len(st.Rhs) == 1 {
				mark(st.Rhs[0])
			}
		}
	case *ast.SendStmt:
		mark(st.Value)
	case *ast.GoStmt:
		for _, arg := range st.Call.Args {
			mark(arg)
		}
	case *ast.DeferStmt:
		if op, _ := poolCallOf(a.p, st.Call); op != poolOpRelease {
			for _, arg := range st.Call.Args {
				mark(arg)
			}
		}
	}

	inspectNoFuncLit(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					mark(kv.Value)
				} else {
					mark(elt)
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := a.p.Info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range x.Args[1:] {
						mark(arg)
					}
				}
			}
		}
		return true
	})

	// Closure captures: every free variable of a non-immediately-invoked
	// function literal escapes into the closure.
	ast.Inspect(n, func(m ast.Node) bool {
		call, isCall := m.(*ast.CallExpr)
		if isCall {
			if fl, ok := call.Fun.(*ast.FuncLit); ok && isImmediatelyInvoked(call, fl) {
				// Visit args and the body's nested literals, but the
				// directly-invoked literal itself is synchronous.
				for _, arg := range call.Args {
					ast.Inspect(arg, func(k ast.Node) bool { return a.captureWalk(k, s, check) })
				}
				ast.Inspect(fl.Body, func(k ast.Node) bool { return a.captureWalk(k, s, check) })
				return false
			}
		}
		return a.captureWalk(m, s, check)
	})
}

func (a *poolFlow) captureWalk(m ast.Node, s flowState, check bool) bool {
	fl, ok := m.(*ast.FuncLit)
	if !ok {
		return true
	}
	for obj := range freeVars(a.p, fl) {
		a.escape(s, obj, fl.Pos(), check)
	}
	return false
}

// escape records that a retaining reference to obj was created at pos.
func (a *poolFlow) escape(s flowState, obj types.Object, pos token.Pos, check bool) {
	if check && s[obj]&factLent != 0 {
		a.report(pos, obj.Name()+" is a packet borrowed for the duration of this callback, but a reference to it is stored in a field, container, goroutine or closure; netsim recycles the packet when the callback returns — copy the fields you need")
	}
	s[obj] |= factEscaped
}

// assign applies definition kills and Get gens for an assignment.
func (a *poolFlow) assign(lhs, rhs []ast.Expr, s flowState) {
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := a.p.Info.Defs[id]
		if obj == nil {
			obj = a.p.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		delete(s, obj) // fresh definition: prior facts die
		if len(lhs) == len(rhs) {
			switch r := rhs[i].(type) {
			case *ast.CallExpr:
				if op, _ := poolCallOf(a.p, r); op == poolOpGet {
					s[obj] = factPooled
				}
			case *ast.Ident:
				// q := pkt copies the pointer, and with it the loan.
				if s[a.p.Info.Uses[r]]&factLent != 0 {
					s[obj] = factLent
				}
			}
		}
	}
}

func (a *poolFlow) kill(s flowState, e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	obj := a.p.Info.Defs[id]
	if obj == nil {
		obj = a.p.Info.Uses[id]
	}
	if obj != nil {
		delete(s, obj)
	}
}

func (a *poolFlow) report(pos token.Pos, msg string) {
	if !a.reporting {
		return
	}
	a.findings = append(a.findings, Finding{
		Pos:      a.p.Fset.Position(pos),
		Analyzer: "poolsafe",
		Message:  msg,
	})
}
