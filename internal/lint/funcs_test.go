package lint_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"fancy/internal/lint"
)

// funcKeepers are the exported functions and methods under internal/ that
// no non-test file calls and that stay anyway: the keeper table of
// DESIGN.md §2.1, with its reasons.
var funcKeepers = []string{
	"cmdtest.Golden",
	"cmdtest.Rejects",
	"dataplane.(*HHProgram).Inject",
	"dataplane.(*HHProgram).Slot",
	"dataplane.(*Pipeline).MemoryByStage",
	"dataplane.(*Register).Len",
	"dataplane.BuildHeavyHitter",
	"fleet.(*Fleet).Acknowledge",
	"fleet.(*Fleet).RestoreEntry",
	"hh.(*Sketch).Slot",
	"mgmt.(*Network).SetFaultHook",
	"netsim.(*LinkEnd).SetCapture",
	"verify.(*Model).OracleCheck",
}

// TestExportedFuncsAreCalled holds DESIGN.md §2.1: an exported function or
// method declared under internal/ that no non-test file names is deleted,
// unless one of §2.1's three rules keeps it — it is a method of a type the
// root package re-exports (public API), it is a method an interface type
// asks for (its callers name the interface, not it), or it is one of
// funcKeepers.
func TestExportedFuncsAreCalled(t *testing.T) {
	pkgs := loadRepo(t)
	used := make(map[types.Object]bool)
	public := make(map[*types.TypeName]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, sel := range p.Info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		if p.Rel != "" {
			continue
		}
		// The root package's type aliases are the public API.
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					public[named.Obj()] = true
				}
			}
		}
	}
	ifaces := interfaceTypes(pkgs)

	var unused []string
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.Rel, "internal/")
		if !ok {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if used[fn] {
					continue
				}
				name := rel[strings.LastIndex(rel, "/")+1:] + "."
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := receiverNamed(recv.Type())
					if public[named.Obj()] || asksFor(ifaces, named, fn.Name()) {
						continue
					}
					star := ""
					if _, ptr := recv.Type().(*types.Pointer); ptr {
						star = "*"
					}
					name += "(" + star + named.Obj().Name() + ")."
				}
				unused = append(unused, name+fn.Name())
			}
		}
	}
	sort.Strings(unused)
	if got, want := strings.Join(unused, "\n"), strings.Join(funcKeepers, "\n"); got != want {
		t.Errorf("exported functions no non-test file calls:\n%s\nwant exactly the keepers:\n%s\n"+
			"delete a new one, or add it to funcKeepers and DESIGN.md §2.1 with its reason", got, want)
	}
}

// receiverNamed is a method receiver's named type, through a pointer.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// interfaceTypes lists every named interface type declared in the module's
// packages and in everything they import, plus error.
func interfaceTypes(pkgs []*lint.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	return out
}

// asksFor reports whether some interface type that the named type (or a
// pointer to it) implements has a method called name.
func asksFor(ifaces []*types.Interface, named *types.Named, name string) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
