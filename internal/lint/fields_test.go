package lint_test

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// fieldKeepers are the exported fields under internal/ that no non-test file
// writes and that stay settable anyway, because a test needs a value
// production does not use. Each has a row in DESIGN.md §2.2.
var fieldKeepers = []string{
	"fleet.Config.CongestionBytes",
	"fleet.Config.Window",
	"fleet.Flow.Until",
	"fleet.VerifyConfig.MaxRetries",
	"netsim.Chaos.CorruptData",
	"netsim.Chaos.DupDelayMax",
	"netsim.Chaos.JitterMax",
	"topo.LinkSpec.RateBps",
}

// TestExportedFieldsAreSet holds DESIGN.md §2.2 over plain struct fields: an
// exported field of a struct type under internal/ that no cmd/ binary,
// experiment, example or benchmark/ file writes is a constant at the value
// production runs, unless it is one of fieldKeepers.
func TestExportedFieldsAreSet(t *testing.T) {
	pkgs := loadRepo(t)
	written := make(map[*types.Var]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			markWrites(p.Info, f, written)
		}
	}
	var unset []string
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.Rel, "internal/")
		if !ok {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fv := st.Field(i); fv.Exported() && !fv.Embedded() && !written[fv] {
					unset = append(unset, rel+"."+name+"."+fv.Name())
				}
			}
		}
	}
	sort.Strings(unset)
	if got, want := strings.Join(unset, "\n"), strings.Join(fieldKeepers, "\n"); got != want {
		t.Errorf("exported fields no non-test file writes:\n%s\nwant exactly the keepers:\n%s\n"+
			"make a new one a constant, or add it to fieldKeepers and DESIGN.md §2.2 with its reason", got, want)
	}
}

// markWrites records every struct field f writes: a keyed or positional
// composite-literal element, the target of an assignment or ++/--, the
// operand of &, a field a nested selector or index writes through, and
// a field a pointer-receiver method is called on. A default is not a
// write: `x.F = <constant>` directly inside `if x.F == 0 { … }` only
// fills in the value a field nobody set runs at.
func markWrites(info *types.Info, f *ast.File, written map[*types.Var]bool) {
	mark := func(fv *types.Var) { written[fv.Origin()] = true }
	defaults := make(map[*ast.AssignStmt]bool)
	isZero := func(e ast.Expr) bool {
		v := info.Types[e].Value
		return v != nil && (v.Kind() == constant.Int || v.Kind() == constant.Float) && constant.Sign(v) == 0
	}
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			target(x.X)
		case *ast.StarExpr:
			target(x.X)
		case *ast.IndexExpr:
			target(x.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				mark(sel.Obj().(*types.Var))
				target(x.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			typ := info.Types[x].Type
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if fv, ok := info.Uses[id].(*types.Var); ok {
							mark(fv)
						}
					}
				} else if i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		case *ast.IfStmt:
			cond, ok := x.Cond.(*ast.BinaryExpr)
			if !ok || cond.Op != token.EQL || !isZero(cond.Y) {
				break
			}
			for _, st := range x.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 &&
					info.Types[as.Rhs[0]].Value != nil && types.ExprString(as.Lhs[0]) == types.ExprString(cond.X) {
					defaults[as] = true
				}
			}
		case *ast.AssignStmt:
			if defaults[x] {
				break
			}
			for _, l := range x.Lhs {
				target(l)
			}
		case *ast.IncDecStmt:
			target(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				target(x.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			if _, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptrRecv {
				break
			}
			if _, ptr := info.Types[x.X].Type.Underlying().(*types.Pointer); !ptr {
				target(x.X)
			}
		}
		return true
	})
}
