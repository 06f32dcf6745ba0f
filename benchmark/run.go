package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name string
	// run executes one pass: the workload's whole fixed simulated work.
	run func(p *pass, seed int64, smoke bool)
}

var workloads = []workload{
	{"link-trace-tcp", func(p *pass, seed int64, smoke bool) {
		runLinkTraceTCP(p, seed, pick(smoke, linkSmoke, linkFull))
	}},
	{"abilene-mesh-udp", func(p *pass, seed int64, smoke bool) {
		runAbilene(p, seed, pick(smoke, meshSmoke, meshFull))
	}},
	{"abilene-ctrl-chaos", func(p *pass, seed int64, smoke bool) {
		runAbilene(p, seed, pick(smoke, chaosSmoke, chaosFull))
	}},
	{"grid144-full", func(p *pass, seed int64, smoke bool) {
		runGrid(p, seed, pick(smoke, gridSmoke, gridFull))
	}},
}

func pick[T any](smoke bool, small, full T) T {
	if smoke {
		return small
	}
	return full
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minPasses is the fewest untraced passes of a run: the equality check
// between passes needs two.
const minPasses = 2

// result is one run of one workload.
type result struct {
	workload string
	seed     int64
	smoke    bool
	passes   []*pass // untraced, in order
	traced   *pass   // nil unless the run was traced; ran between the last two of passes

	e2e   map[string]float64
	layer map[string]float64 // traced runs only

	attempted, failed int
	problems          []string // failed output checks; empty means correct
}

// measure runs w for about seconds of host time: untraced passes back to
// back, then — when traced — one traced pass under a CPU profile, one more
// untraced pass, and the probes sized from the traced one. A traced run
// spends half its time on the untraced passes it compares itself against.
func measure(w workload, seed int64, seconds float64, traced, smoke bool, outDir string) (*result, error) {
	r := &result{workload: w.name, seed: seed, smoke: smoke}
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	untraced := func() {
		p := newPass(false)
		p.begin()
		w.run(p, seed, smoke)
		p.end()
		r.passes = append(r.passes, p)
	}
	start := time.Now()
	for len(r.passes) < minPasses || (!smoke && time.Since(start) < budget) {
		untraced()
	}
	var prof bytes.Buffer
	if traced {
		p := newPass(true)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		p.begin()
		w.run(p, seed, smoke)
		p.end()
		pprof.StopCPUProfile()
		r.traced = p
		untraced() // the traced pass's other neighbour, for trace.overhead_ratio
	}
	first := r.passes[0]
	r.attempted = len(first.ops)
	for _, o := range first.ops {
		if !o.exact {
			r.failed++
			r.problems = append(r.problems, "not exactly detected before the horizon: "+o.name)
		}
		if !o.crosses {
			r.problems = append(r.problems, "route does not cross the failed link: "+o.name)
		}
	}
	if r.attempted == 0 {
		r.problems = append(r.problems, "no failure was injected")
	}
	if first.falseVerdicts != 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d false verdict(s)", first.falseVerdicts))
	}
	for i, p := range r.passes[1:] {
		for _, d := range diffPasses(first, p) {
			r.problems = append(r.problems, fmt.Sprintf("pass %d differs from pass 1: %s", i+2, d))
		}
	}
	r.e2e = endToEndOf(r.passes)

	if traced {
		for _, d := range diffPasses(first, r.traced) {
			r.problems = append(r.problems, "traced pass differs from pass 1: "+d)
		}
		shares, err := foldProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		r.layer = perLayerOf(r, shares)
		if err := writeTrace(outDir, r, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// eachPass lists one per-pass quantity over the passes.
func eachPass(passes []*pass, of func(*pass) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = of(p)
	}
	return out
}

func wallOf(p *pass) float64  { return p.wall.Seconds() }
func setupOf(p *pass) float64 { return p.setup.Seconds() }
func mallocsOf(p *pass) float64 {
	return float64(p.mem1.Mallocs - p.mem0.Mallocs)
}
func allocBytesOf(p *pass) float64 {
	return float64(p.mem1.TotalAlloc - p.mem0.TotalAlloc)
}

// ttlsMs lists the exact operations' times to the first correct verdict.
func ttlsMs(p *pass) []float64 {
	var out []float64
	for _, o := range p.ops {
		if o.exact {
			out = append(out, float64(o.ttl)/1e6)
		}
	}
	return out
}

func reroutesMs(p *pass) []float64 {
	var out []float64
	for _, o := range p.ops {
		if o.rerouted {
			out = append(out, float64(o.reroute)/1e6)
		}
	}
	return out
}

// endToEndOf computes the end-to-end metrics of a run: medians over the
// passes for host cost, the first pass's values for what is exact.
func endToEndOf(passes []*pass) map[string]float64 {
	first := passes[0]
	simS := first.simTime.Seconds()
	ttls := ttlsMs(first) // one per exact operation
	ttl := 0.0            // only when every operation failed, which the checks report
	if len(ttls) > 0 {
		ttl = median(ttls)
	}
	return map[string]float64{
		"wall_s":           median(eachPass(passes, wallOf)),
		"setup_s":          median(eachPass(passes, setupOf)),
		"allocs_per_sim_s": median(eachPass(passes, mallocsOf)) / simS,
		"alloc_mb":         median(eachPass(passes, allocBytesOf)) / 1e6,
		"ttl_median_ms":    ttl,
		"exact_ratio":      ratio(float64(len(ttls)), float64(len(first.ops))),
	}
}

// perLayerOf assembles the per-layer metrics from the traced pass's counters
// and spans, the folded CPU profile, and the probes.
func perLayerOf(r *result, shares map[string]float64) map[string]float64 {
	p := r.traced
	c := make(map[string]float64, len(p.counts))
	for k, v := range p.counts {
		c[k] = float64(v)
	}
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = c[d.name] // counters read under their metric's name
	}
	for _, l := range cpuLayers {
		out[l+".cpu_share"] = shares[l]
	}
	out["go.gc_bg_cpu_share"] = shares[bucketGC]
	out["trace.unattributed_cpu_share"] = shares[bucketUnattributed]

	best := slices.Min(eachPass(r.passes, wallOf))
	out["sim.ns_per_event"] = best * 1e9 / c["sim.events"]
	out["sim.pending_max"] = float64(p.samples.pendingMax)
	out["netsim.queue_bytes_max"] = float64(p.samples.queueMax)
	out["netsim.routes_max"] = float64(p.peaks["netsim.routes_max"])
	out["netsim.delivered_ratio"] = ratio(c["netsim.pkts_delivered"], c["netsim.pkts_sent"])
	out["netsim.pool_reuse_ratio"] = ratio(c["netsim.pool_reuses"], c["netsim.pool_gets"])
	out["mgmt.delivered_ratio"] = ratio(c["mgmt.dgrams_delivered"], c["mgmt.dgrams_sent"])
	out["verify.model_atoms"] = float64(p.peaks["verify.model_atoms"])

	out["traffic.synthesize_s"] = p.byName[bSynthesize.name].Seconds()
	out["topo.build_s"] = p.byName[bTopoBuild.name].Seconds()
	out["topo.install_paths_s"] = p.byName[bInstallPaths.name].Seconds()
	out["fleet.new_s"] = p.byName[bFleetNew.name].Seconds()
	out["fleet.snapshot_s"] = p.byName[bSnapshot.name].Seconds()

	out["go.gc_cycles"] = float64(p.mem1.NumGC - p.mem0.NumGC)
	out["go.heap_peak_mb"] = float64(p.mem1.HeapSys) / 1e6
	out["go.mallocs"] = mallocsOf(p)
	out["go.alloc_bytes"] = allocBytesOf(p)

	ttls := ttlsMs(p)
	out["verdict.samples"] = float64(len(ttls))
	if len(ttls) > 0 {
		out["verdict.ttl_p90_ms"] = percentile(ttls, 0.9)
		out["verdict.ttl_max_ms"] = slices.Max(ttls)
	}
	rr := reroutesMs(p)
	out["verdict.reroute_samples"] = float64(len(rr))
	if len(rr) > 0 {
		out["verdict.reroute_median_ms"] = median(rr)
	}
	out["verdict.false"] = float64(p.falseVerdicts)

	runProbes(probeSizes{
		ops:       pick(r.smoke, probeOpsSmoke, probeOpsFull),
		reps:      pick(r.smoke, probeRepsSmoke, probeRepsFull),
		heapDepth: p.samples.pendingMax,
		routes:    int(p.peaks["netsim.routes_max"]),
		fancy:     p.probeFancy,
		net:       p.probeNet,
		flip:      p.probeFlip,
	}, c, out)

	var est float64
	for _, d := range perLayer {
		if strings.HasSuffix(d.name, ".est_s") {
			est += out[d.name]
		}
	}
	out["trace.coverage"] = est / best
	// The host drifts by more than tracing costs, so the overhead is taken
	// against the untraced passes that ran just before and just after.
	n := len(r.passes)
	around := (wallOf(r.passes[n-2]) + wallOf(r.passes[n-1])) / 2
	out["trace.overhead_ratio"] = wallOf(p)/around - 1
	return out
}

// diffPasses lists what differs between two passes among the outputs that
// must be identical: every counter, every peak, every operation's outcome.
func diffPasses(a, b *pass) []string {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < 8 {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	diffMaps := func(kind string, x, y map[string]uint64) {
		keys := make(map[string]bool)
		for k := range x {
			keys[k] = true
		}
		for k := range y {
			keys[k] = true
		}
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if x[k] != y[k] {
				add("%s %s: %v vs %v", kind, k, x[k], y[k])
			}
		}
	}
	diffMaps("count", a.counts, b.counts)
	diffMaps("peak", a.peaks, b.peaks)
	if a.simTime != b.simTime {
		add("simulated time: %v vs %v", a.simTime, b.simTime)
	}
	if a.falseVerdicts != b.falseVerdicts {
		add("false verdicts: %d vs %d", a.falseVerdicts, b.falseVerdicts)
	}
	if len(a.ops) != len(b.ops) {
		add("operations: %d vs %d", len(a.ops), len(b.ops))
		return out
	}
	for i := range a.ops {
		if a.ops[i] != b.ops[i] {
			add("operation %s: %+v vs %+v", a.ops[i].name, a.ops[i], b.ops[i])
		}
	}
	return out
}
