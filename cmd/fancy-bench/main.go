// Command fancy-bench regenerates the tables and figures of the FANcY
// paper's evaluation.
//
// Usage:
//
//	fancy-bench -list
//	fancy-bench -exp fig7,table3
//	fancy-bench -exp all -full                # paper-scale parameters (slow)
//	fancy-bench -exp fleet -full -workers 4   # parallel fleet trials
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. Stdout is the artifact:
// byte-identical for a seed at any -workers value, and pinned by
// testdata/*.golden (refresh one with `go run ./cmd/fancy-bench [args] >
// cmd/fancy-bench/testdata/<name>.golden` in the change that explains why a
// number moved). The per-experiment host-time footers go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"fancy/cmd/internal/flagcheck"
	"fancy/internal/exp"
)

type experiment struct {
	name string
	desc string
	run  func(scale exp.Scale, seed int64) string
}

// experiments builds the registry. workers sets the trial-level
// parallelism of the fleet sweeps (1 = sequential; results are
// byte-identical for every value).
func experiments(workers int) []experiment {
	return []experiment{
		{"table2", "LossRadar requirements vs switch capabilities (§2.3)",
			func(exp.Scale, int64) string { return exp.Table2() }},
		{"fig2", "NetSeer required memory vs link latency (§2.3)",
			func(exp.Scale, int64) string { return exp.Figure2() }},
		{"fig7", "dedicated-counter accuracy & speed heatmaps (§5.1.1)",
			func(s exp.Scale, seed int64) string { return exp.Figure7(s, seed).Render() }},
		{"fig8", "minimum entry size per zooming speed (§5.1.2)",
			func(s exp.Scale, seed int64) string { return exp.Figure8(s, seed).Render() }},
		{"fig9a", "hash-tree heatmaps, single-entry failures (§5.1.2)",
			func(s exp.Scale, seed int64) string { return exp.Figure9Single(s, seed).Render() }},
		{"fig9b", "hash-tree heatmaps, multi-entry failures (§5.1.2)",
			func(s exp.Scale, seed int64) string { return exp.Figure9Multi(s, seed).Render() }},
		{"uniform", "uniform-failure classification (§5.1.3)",
			func(s exp.Scale, seed int64) string {
				r := exp.UniformFailures(s, seed)
				var b strings.Builder
				b.WriteString("== §5.1.3 uniform failures ==\n")
				for i, loss := range r.LossRates {
					fmt.Fprintf(&b, "loss %-5s detected=%v latency=%.2fs\n",
						exp.LossLabel(loss), r.Detected[i], r.Latency[i])
				}
				return b.String()
			}},
		{"table3", "FANcY on CAIDA-like traces (§5.2)",
			func(s exp.Scale, seed int64) string { return exp.Table3(s, seed).Render() }},
		{"base", "comparison to simple designs (§5.2)",
			func(s exp.Scale, seed int64) string { return exp.BaselineComparison(s, seed).Render() }},
		{"overhead", "control and tagging overhead (§5.3)",
			func(exp.Scale, int64) string { return exp.Overhead().Render() }},
		{"table4", "Tofino hardware resource usage (§6)",
			func(exp.Scale, int64) string { return exp.Table4() }},
		{"fig10", "selective fast-rerouting case study (§6.1)",
			func(s exp.Scale, seed int64) string { return exp.Figure10(s, seed).Render() }},
		{"fleet", "ISP-wide fleet: Abilene gray-link localization + gated reroute",
			func(s exp.Scale, seed int64) string {
				return exp.FleetAbileneWorkers(s, seed, false, workers).Render()
			}},
		{"fleet-chaos", "fleet survivability: localization vs mgmt-plane loss + correlator crash",
			func(s exp.Scale, seed int64) string { return exp.FleetChaos(s, seed).Render() }},
		{"fleet-verified", "fleet localization sweep with the verified-commit gate on",
			func(s exp.Scale, seed int64) string {
				return exp.FleetAbileneWorkers(s, seed, true, workers).Render()
			}},
		{"verified-reroute", "verified reroute: concurrent-failure chaos suite",
			func(s exp.Scale, seed int64) string { return exp.VerifiedReroute(s, seed).Render() }},
		{"hh-churn", "churning heavy hitters: dynamic vs static dedicated-counter allocation",
			func(s exp.Scale, seed int64) string { return exp.HHChurn(s, seed).Render() }},
		{"fig11", "tree parameter sensitivity (Appendix D)",
			func(s exp.Scale, seed int64) string { return exp.Figure11(s, seed).Render() }},
		{"table5", "synthesized trace statistics (Appendix C)",
			func(s exp.Scale, _ int64) string { return exp.Table5(s) }},
		{"abl-strawman", "ablation: stop-and-wait vs §4.1 strawman",
			func(s exp.Scale, seed int64) string { return exp.AblationStrawman(s, seed).Render() }},
		{"abl-select", "ablation: zoom counter selection policy",
			func(s exp.Scale, seed int64) string { return exp.AblationSelection(s, seed).Render() }},
		{"abl-blink", "ablation: Blink vs FANcY on minority-flow failures",
			func(s exp.Scale, seed int64) string { return exp.AblationBlink(s, seed).Render() }},
		{"sweep-freq", "exchange-frequency sensitivity (§5.1.1 text)",
			func(s exp.Scale, seed int64) string { return exp.ExchangeFrequencySweep(s, seed).Render() }},
		{"sweep-delay", "link-delay sensitivity (§5 text)",
			func(s exp.Scale, seed int64) string { return exp.DelaySweep(s, seed).Render() }},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: tables on stdout, host-time footers and errors
// on stderr, exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fancy-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		expt    = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		full    = fs.Bool("full", false, "paper-scale parameters (slow)")
		seed    = fs.Int64("seed", 20220822, "random seed")
		workers = fs.Int("workers", 1, "trial-level parallelism of the fleet sweeps (same results at any value)")
	)
	if code, done := flagcheck.Parse(fs, args); done {
		return code
	}
	if *workers < 1 {
		fmt.Fprintf(stderr, "fancy-bench: -workers must be >= 1, got %d\n", *workers)
		return 2
	}

	all := experiments(*workers)
	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-10s %s\n", e.name, e.desc)
		}
		return 0
	}

	scale := exp.Quick
	if *full {
		scale = exp.Full
	}

	want := map[string]bool{}
	runAll := *expt == "all"
	if !runAll {
		for _, name := range strings.Split(*expt, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.name] = true
	}
	var unknown []string
	for name := range want {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(stderr, "fancy-bench: unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
		return 2
	}

	for _, e := range all {
		if !runAll && !want[e.name] {
			continue
		}
		start := time.Now()
		fmt.Fprintln(stdout, e.run(scale, *seed))
		fmt.Fprintf(stderr, "[%s: %s scale, %.1fs]\n", e.name, scale, time.Since(start).Seconds())
	}
	return 0
}
