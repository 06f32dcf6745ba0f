package lint

import (
	"go/ast"
)

// simFacingSegments names the packages that run on the event-loop clock.
// Any package whose module-relative import path contains one of these
// segments must never read the wall clock: a single time.Now or time.Sleep
// makes a run irreproducible from its seed.
var simFacingSegments = map[string]bool{
	"sim":       true,
	"netsim":    true,
	"fancy":     true,
	"fleet":     true,
	"mgmt":      true,
	"tcp":       true,
	"traffic":   true,
	"exp":       true,
	"reroute":   true,
	"hh":        true,
	"dataplane": true,
	"verify":    true,
}

// walltimeBanned are the package-level time functions that read or wait on
// the wall clock. Pure data types (time.Duration, time.Time arithmetic,
// formatting) remain allowed.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// AnalyzerWalltime bans wall-clock access in simulation-facing packages.
var AnalyzerWalltime = &Analyzer{
	Name: "walltime",
	Doc:  "simulation-facing packages must use the event-loop clock, not time.Now/Sleep/After/...",
	Run:  runWalltime,
}

func runWalltime(p *Package) []Finding {
	if !pathHasSegment(p, simFacingSegments) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !walltimeBanned[sel.Sel.Name] {
				return true
			}
			if importedPackage(p, sel.X) != "time" {
				return true
			}
			out = append(out, Finding{
				Pos:      p.Fset.Position(sel.Pos()),
				Analyzer: "walltime",
				Message: "time." + sel.Sel.Name + " reads the wall clock; simulation code must use " +
					"the event-loop clock (sim.Sim.Now / sim.Sim.After)",
			})
			return true
		})
	}
	return out
}
