// Command fancy-resources prints the Tofino hardware resource report
// (Table 4 of the paper) and the register-memory layout of a FANcY
// deployment, optionally for custom dimensions.
//
// Usage:
//
//	fancy-resources
//	fancy-resources -dedicated 1024 -width 250
//	fancy-resources -budget 20000 -entries 500   # input translation check
//	fancy-resources -hh-stages 3 -hh-width 64    # heavy-hitter stage sizing
//
// With -hh-stages > 0 the report includes the heavy-hitter sketch stage
// (internal/hh) and the command exits non-zero if the full deployment no
// longer fits the Tofino-1 envelope.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fancy"
	"fancy/cmd/internal/flagcheck"
	"fancy/internal/exp"
	"fancy/internal/fancy/tree"
	"fancy/internal/p4gen"
	"fancy/internal/tofino"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: the report on stdout, errors on stderr; exit 2
// for a usage error, 1 when the deployment cannot be planned or does not fit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fancy-resources", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "fancy-resources: "+format+"\n", a...)
		return code
	}
	var (
		dedicated = fs.Int("dedicated", 512, "dedicated entries per port")
		width     = fs.Int("width", 190, "tree width")
		ports     = fs.Int("ports", 32, "switch ports")
		budget    = fs.Int("budget", 0, "per-port memory budget in bytes (runs input translation)")
		entries   = fs.Int("entries", 500, "high-priority entries for input translation")
		emitP4    = fs.Bool("p4", false, "emit the P4_16 program skeleton instead of the report")
		hhStages  = fs.Int("hh-stages", 3, "heavy-hitter sketch stages (0 = stage not deployed)")
		hhWidth   = fs.Int("hh-width", 64, "heavy-hitter sketch slots per stage")
	)
	if code, done := flagcheck.Parse(fs, args); done {
		return code
	}

	if *emitP4 {
		hp := make([]fancy.EntryID, *dedicated)
		for i := range hp {
			hp[i] = fancy.EntryID(i)
		}
		cfg := fancy.Config{
			HighPriority: hp,
			Tree:         tree.Params{Width: *width, Depth: 3, Split: 1, Pipelined: false},
		}
		src, err := p4gen.Generate(cfg, p4gen.Options{Ports: *ports})
		if err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprint(stdout, src)
		return 0
	}

	if *budget > 0 {
		hp := make([]fancy.EntryID, *entries)
		for i := range hp {
			hp[i] = fancy.EntryID(i)
		}
		cfg := fancy.Config{HighPriority: hp, MemoryBytes: *budget}
		layout, err := cfg.Plan()
		if err != nil {
			return fail(1, "input translation failed: %v", err)
		}
		fmt.Fprintf(stdout, "input translation for %d B/port, %d high-priority entries:\n  %s\n\n",
			*budget, *entries, layout)
	}

	fmt.Fprintln(stdout, exp.Table4())

	d := tofino.PaperConfig()
	d.DedicatedPerPort = *dedicated
	d.MachinesPerPort = *dedicated
	d.TreeWidth = *width
	d.Ports = *ports
	d.HHStages = *hhStages
	d.HHWidth = *hhWidth
	fmt.Fprintf(stdout, "register memory for %d ports, %d dedicated/port, width-%d tree:\n", *ports, *dedicated, *width)
	fmt.Fprintf(stdout, "  state machines:     %8.1f KB\n", float64(d.StateMachineBytes())/1024)
	fmt.Fprintf(stdout, "  dedicated counters: %8.1f KB\n", float64(d.DedicatedCounterBytes())/1024)
	fmt.Fprintf(stdout, "  hash-based tree:    %8.1f KB\n", float64(d.TreeBytes())/1024)
	fmt.Fprintf(stdout, "  rerouting:          %8.1f KB\n", float64(d.RerouteBytes())/1024)
	if d.HHStages > 0 {
		fmt.Fprintf(stdout, "  heavy-hitter stage: %8.1f KB (%d-stage x %d-slot sketch/port)\n",
			float64(d.HeavyHitterBytes())/1024, d.HHStages, d.HHWidth)
	}
	fmt.Fprintf(stdout, "  total:              %8.1f KB (%.1f KB with rerouting)\n",
		float64(d.TotalBytes(false))/1024, float64(d.TotalBytes(true))/1024)

	if d.HHStages > 0 {
		chip := tofino.Tofino32()
		r := chip.FancyResources(d, true)
		u := chip.Utilization(r)
		fmt.Fprintf(stdout, "\nfull deployment + heavy-hitter stage on %s:\n", chip.Name)
		fmt.Fprintf(stdout, "  sram=%.1f%% salu=%.1f%% vliw=%.1f%% tcam=%.1f%% hash=%.1f%% txbar=%.1f%% exbar=%.1f%%\n",
			u.SRAM*100, u.SALU*100, u.VLIW*100, u.TCAM*100,
			u.HashBits*100, u.TernaryXbar*100, u.ExactXbar*100)
		if !chip.Fits(r) {
			return fail(1, "deployment does NOT fit the Tofino-1 envelope")
		}
		fmt.Fprintln(stdout, "  fits the Tofino-1 envelope")
	}
	return 0
}
