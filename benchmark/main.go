// Command benchmark is the repo's performance benchmark: four workloads
// composed directly from the layers' public APIs, end-to-end metrics from
// untraced passes, and a per-layer decomposition from one traced pass.
// BENCHMARK.json at the repo root declares its workloads, metrics and bounds;
// README.md in this directory explains them.
//
//	go run ./benchmark                         # all four workloads, traced
//	go run ./benchmark -workload grid144-full  # one; ends with a JSON result line
//	go run ./benchmark -aa 2                   # noise record: two untraced sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// defaultSeed is the repo's standard seed; 20220823 is the held-out seed
// for claims made with this benchmark.
const defaultSeed = 20220822

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // the driver passes 0 or 1, so not a bool flag
	aa       int
	smoke    bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with a one-line JSON result")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "the only input to workload generation")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds to measure per workload")
	flag.IntVar(&o.trace, "trace", 1, "1: add a traced pass and report per-layer metrics; 0: end-to-end metrics only")
	flag.IntVar(&o.aa, "aa", 0, "run N untraced sets back to back and compare them with the bounds in BENCHMARK.json")
	flag.BoolVar(&o.smoke, "smoke", false, "run the test-sized version of each workload, two passes")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for the traced pass's span file and CPU profile")
	flag.Parse()
	// One core for the simulator, one for the garbage collector: trials are
	// strictly sequential on one goroutine.
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Stdout, o))
}

func run(w io.Writer, o options) int {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	fmt.Fprintf(w, "# fancy benchmark: %s, nproc %d, GOMAXPROCS %d, GOGC %d, seed %d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, o.seed)

	selected := workloads
	if o.workload != "" {
		wl, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{wl}
	}
	if o.aa > 0 {
		return runAA(w, selected, o)
	}

	failedChecks := 0
	var last *result
	for _, wl := range selected {
		r, err := measure(wl, o.seed, o.seconds, o.trace != 0, o.smoke, o.outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
			return 2
		}
		printResult(w, r)
		failedChecks += len(r.problems)
		last = r
	}
	if o.workload != "" {
		// The one-workload form reports correctness in its result line and
		// leaves the verdict to the caller.
		fmt.Fprintln(w, resultLine(last))
		return 0
	}
	if failedChecks > 0 {
		return 1
	}
	return 0
}

// printResult prints every metric of a run by name with its unit, the host
// metrics with every pass's value.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s: %d untraced pass(es)", r.workload, len(r.passes))
	if r.traced != nil {
		fmt.Fprintf(w, " + 1 traced")
	}
	fmt.Fprintf(w, ", %d failure(s) injected, %d not exact ==\n", r.attempted, r.failed)
	perPass := map[string][]float64{
		"wall_s":  eachPass(r.passes, wallOf),
		"setup_s": eachPass(r.passes, setupOf),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-34s %16.6f %-6s", d.name, r.e2e[d.name], d.unit)
		if vs, ok := perPass[d.name]; ok {
			fmt.Fprintf(w, " passes:")
			for _, v := range vs {
				fmt.Fprintf(w, " %.4f", v)
			}
		}
		fmt.Fprintln(w)
	}
	if r.layer != nil {
		for _, d := range perLayer {
			fmt.Fprintf(w, "%-34s %16.6f %s\n", d.name, r.layer[d.name], d.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a one-workload run: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced.
func resultLine(r *result) string {
	defs, values := endToEnd, r.e2e
	if r.layer != nil {
		defs, values = perLayer, r.layer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(fmt.Sprintf("benchmark: result line: %v", err)) // a NaN metric: a bug here
	}
	return string(line)
}

// declaration is BENCHMARK.json as far as -aa and the tests read it.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readDeclaration finds BENCHMARK.json from the repo root (go run
// ./benchmark) or from this directory (go test).
func readDeclaration() (*declaration, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declaration
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	return nil, firstErr
}

// runAA is the noise record: sets complete runs of every selected workload,
// untraced, then per end-to-end metric the min, median and max across the
// sets and their spread as a share of the metric's bound.
func runAA(w io.Writer, selected []workload, o options) int {
	decl, err := readDeclaration()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -aa needs the bounds in BENCHMARK.json: %v\n", err)
		return 2
	}
	bounds := make(map[string]float64)
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := make(map[string]map[string][]float64) // workload → metric → per set
	bad := 0
	for set := 1; set <= o.aa; set++ {
		for _, wl := range selected {
			r, err := measure(wl, o.seed, o.seconds, false, o.smoke, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 2
			}
			fmt.Fprintf(w, "set %d %s: %d passes, wall_s %.4f\n", set, wl.name, len(r.passes), r.e2e["wall_s"])
			for _, p := range r.problems {
				fmt.Fprintf(w, "CHECK FAILED: %s: %s\n", wl.name, p)
				bad++
			}
			if values[wl.name] == nil {
				values[wl.name] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				values[wl.name][d.name] = append(values[wl.name][d.name], r.e2e[d.name])
			}
		}
	}
	fmt.Fprintf(w, "\n%-20s %-18s %14s %14s %14s %8s %6s %s\n",
		"workload", "metric", "min", "median", "max", "spread", "bound", "spread/bound")
	for _, wl := range selected {
		for _, d := range endToEnd {
			vs := values[wl.name][d.name]
			sp, b := spread(vs), bounds[d.name]
			verdict := ""
			if sp > b {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6f %14.6f %14.6f %7.2f%% %5.0f%% %5.2f%s\n",
				wl.name, d.name, slices.Min(vs), median(vs), slices.Max(vs), 100*sp, 100*b, ratio(sp, b), verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%s\n", strings.ToUpper("noise record failed"))
		return 1
	}
	return 0
}
