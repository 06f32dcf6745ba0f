package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerMapOrder flags `range` over a map whose loop body has
// order-sensitive effects — appending to a slice that outlives the loop,
// printing, sending on a channel, writing to a stream/encoder, or
// scheduling simulator events — unless every such append target is sorted
// after the loop (the collect-then-sort idiom).
//
// Go randomizes map iteration order per run, so any of these effects turns
// a map range into per-run nondeterminism: event logs reorder, checkpoints
// stop being byte-identical, scheduled events get different sequence
// numbers. Order-insensitive bodies (counting, summing, writing into
// another map, finding a max) are not flagged.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "range over a map with order-sensitive effects needs sorted keys",
	Run:  runMapOrder,
}

// mapEffect is one order-sensitive effect found in a map-range body.
type mapEffect struct {
	desc   string
	target types.Object // append destination, nil for non-append effects
	expr   string       // printed append destination, for selector targets
}

// emissionMethods are method names whose call inside a map-range body emits
// ordered output: stream writers, encoders and the simulator's scheduling
// entry points.
var emissionMethods = map[string]bool{
	"Write":              true,
	"WriteString":        true,
	"WriteByte":          true,
	"WriteRune":          true,
	"Encode":             true,
	"Schedule":           true,
	"ScheduleAt":         true,
	"ScheduleTimer":      true,
	"ScheduleTimerActor": true,
	"After":              true,
	"AfterActor":         true,
	"At":                 true,
	"AtActor":            true,
	"Sequence":           true,
	"Reserve":            true,
	"QueueActor":         true,
}

func runMapOrder(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		// Walk per enclosing function so the sorted-after-the-loop
		// exemption can scan the rest of the function body.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.RangeStmt:
					if !p.isMapRange(x) {
						return true
					}
					effects := p.mapOrderEffects(x.Body, x.Pos(), x.End())
					if len(effects) == 0 || p.allAppendsSorted(body, x.End(), effects) {
						return true
					}
					out = append(out, Finding{
						Pos:      p.Fset.Position(x.Pos()),
						Analyzer: "maporder",
						Message: "map iteration order is randomized but the loop body " +
							effects[0].desc + "; sort the keys first (or //lint:allow with a reason)",
					})
				case *ast.CallExpr:
					// sync.Map.Range iterates in unspecified order, exactly
					// like a map range: the callback body gets the same
					// effect analysis and collect-then-sort exemption.
					fl := p.syncMapRangeBody(x)
					if fl == nil {
						return true
					}
					effects := p.mapOrderEffects(fl.Body, fl.Pos(), fl.End())
					if len(effects) == 0 || p.allAppendsSorted(body, x.End(), effects) {
						return true
					}
					out = append(out, Finding{
						Pos:      p.Fset.Position(x.Pos()),
						Analyzer: "maporder",
						Message: "sync.Map.Range iteration order is unspecified but the callback " +
							effects[0].desc + "; collect and sort the keys first (or //lint:allow with a reason)",
					})
				}
				return true
			})
			return true
		})
	}
	return out
}

func (p *Package) isMapRange(rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// syncMapRangeBody returns the callback literal when call is
// (*sync.Map).Range(func(k, v any) bool { ... }), nil otherwise.
func (p *Package) syncMapRangeBody(call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" || len(call.Args) != 1 {
		return nil
	}
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "Map" || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil
	}
	fl, _ := call.Args[0].(*ast.FuncLit)
	return fl
}

// mapOrderEffects collects the order-sensitive effects of an iteration body
// (a map-range body or a sync.Map.Range callback spanning [lo, hi)).
func (p *Package) mapOrderEffects(body ast.Node, lo, hi token.Pos) []mapEffect {
	var effects []mapEffect
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isBuiltinAppend(call) || i >= len(s.Lhs) {
					continue
				}
				target, root, expr := p.assignTarget(s.Lhs[i])
				if root != nil && lo <= root.Pos() && root.Pos() < hi {
					// Per-iteration target: a temporary, or a field of
					// per-key state (ls := m[key]; ls.xs = append(...)).
					// Each iteration touches its own target, so order
					// across keys cannot matter.
					continue
				}
				effects = append(effects, mapEffect{
					desc:   "appends to " + expr + ", which outlives the loop",
					target: target,
					expr:   expr,
				})
			}
		case *ast.SendStmt:
			effects = append(effects, mapEffect{desc: "sends on a channel"})
		case *ast.CallExpr:
			if d := p.emissionCall(s); d != "" {
				effects = append(effects, mapEffect{desc: d})
			}
		}
		return true
	})
	return effects
}

// assignTarget resolves an append destination to its object (for plain
// identifiers), the object of the root identifier of its selector chain,
// and its printed form.
func (p *Package) assignTarget(lhs ast.Expr) (target, root types.Object, expr string) {
	expr = types.ExprString(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		return obj, obj, expr
	}
	// Selector or index destination: identified by text; escape analysis
	// falls back to the root identifier (the s of s.field).
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			return nil, obj, expr
		default:
			return nil, nil, expr
		}
	}
}

func (p *Package) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// emissionCall reports whether the call prints, writes to a stream or
// schedules events, returning a description ("" if not).
func (p *Package) emissionCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if importedPackage(p, sel.X) == "fmt" &&
		(strings.HasPrefix(sel.Sel.Name, "Print") || strings.HasPrefix(sel.Sel.Name, "Fprint")) {
		return "prints with fmt." + sel.Sel.Name
	}
	if emissionMethods[sel.Sel.Name] {
		if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			return "calls " + types.ExprString(sel) + ", which emits in iteration order"
		}
	}
	return ""
}

// allAppendsSorted reports whether every effect is an append whose target is
// passed to a sort.* / slices.Sort* call after the iteration (which ends at
// end) in the same function.
func (p *Package) allAppendsSorted(fnBody *ast.BlockStmt, end token.Pos, effects []mapEffect) bool {
	for _, e := range effects {
		if e.target == nil && e.expr == "" {
			return false // non-append effect: never exempt
		}
		if !p.sortedAfter(fnBody, end, e) {
			return false
		}
	}
	return true
}

func (p *Package) sortedAfter(fnBody *ast.BlockStmt, end token.Pos, e mapEffect) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < end {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := importedPackage(p, sel.X)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		// Any argument subtree mentioning the append target counts: it
		// covers sort.Strings(keys), sort.Slice(keys, less) and
		// slices.SortFunc(keys, cmp) alike.
		for _, arg := range call.Args {
			if p.mentions(arg, e) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentions reports whether the expression subtree references the effect's
// append target, by object identity or printed form.
func (p *Package) mentions(expr ast.Expr, e mapEffect) bool {
	hit := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if hit {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if e.target != nil && p.Info.Uses[x] == e.target {
				hit = true
			}
		case *ast.SelectorExpr:
			if e.target == nil && e.expr != "" && types.ExprString(x) == e.expr {
				hit = true
			}
		}
		return !hit
	})
	return hit
}
