package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSpread(t *testing.T) {
	vs := []float64{40, 10, 30, 20}
	if got := median(vs); !near(got, 25) {
		t.Errorf("median = %v, want 25", got)
	}
	if got := median([]float64{3, 1, 2}); !near(got, 2) {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := percentile(vs, 0.9); !near(got, 37) {
		t.Errorf("p90 = %v, want 37 (linear interpolation at rank 2.7)", got)
	}
	if got := percentile(vs, 0); !near(got, 10) {
		t.Errorf("p0 = %v, want 10", got)
	}
	if got := percentile(vs, 1); !near(got, 40) {
		t.Errorf("p100 = %v, want 40", got)
	}
	if !near(vs[0], 40) {
		t.Errorf("percentile reordered its input: %v", vs)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	if got := spread([]float64{9, 10, 11}); !near(got, 0.2) {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := ratio(3, 0); !near(got, 0) {
		t.Errorf("ratio over a bypassed layer = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// pass[0,100] → trial[10,90] → {topo.build[10,30], sim.run[40,80]}
	spans := []span{
		{Name: "pass", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "trial", Parent: 0, StartNs: 10, EndNs: 90},
		{Name: "topo.build", Parent: 1, StartNs: 10, EndNs: 30},
		{Name: "sim.run", Parent: 1, StartNs: 40, EndNs: 80},
	}
	want := []int64{20, 20, 20, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPassRecordsNestedSpans(t *testing.T) {
	p := newPass(true)
	p.begin()
	p.beginTrial()
	p.call(bTopoBuild, func() {})
	p.call(bSimRun, func() {})
	p.endTrial()
	p.end()
	var names []string
	for _, sp := range p.spans {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, " "); got != "pass trial topo.build sim.run" {
		t.Fatalf("spans = %q", got)
	}
	for i, parent := range []int{-1, 0, 1, 1} {
		if p.spans[i].Parent != parent {
			t.Errorf("parent of %s = %d, want %d", p.spans[i].Name, p.spans[i].Parent, parent)
		}
		if p.spans[i].EndNs < p.spans[i].StartNs {
			t.Errorf("span %s ends before it starts", p.spans[i].Name)
		}
	}
	if p.setup <= 0 || p.wall <= 0 {
		t.Errorf("set-up %v and run %v must both be charged", p.setup, p.wall)
	}
}

// pb is a minimal protobuf writer for the canned profile.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

// cannedProfile encodes stacks (leaf first; a frame "a<b" is a inlined into
// b at one location) with their sample weights, as runtime/pprof would.
func cannedProfile(t *testing.T, stacks [][]string, weights []uint64) []byte {
	t.Helper()
	strIdx := map[string]uint64{"": 0}
	strs := []string{""}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var prof, funcs, locs pb
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var sample, locIDs, values pb
		for _, frame := range stack {
			var loc pb
			loc.varint(1, nextLoc)
			for _, fn := range strings.Split(frame, "<") {
				if funcID[fn] == 0 {
					funcID[fn] = uint64(len(funcID) + 1)
					var f pb
					f.varint(1, funcID[fn])
					f.varint(2, intern(fn))
					funcs.bytesField(5, f.Bytes())
				}
				var line pb
				line.varint(1, funcID[fn])
				loc.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, loc.Bytes())
			locIDs.Write(binary.AppendUvarint(nil, nextLoc))
			nextLoc++
		}
		values.Write(binary.AppendUvarint(nil, 1))          // samples
		values.Write(binary.AppendUvarint(nil, weights[i])) // cpu nanoseconds
		sample.bytesField(1, locIDs.Bytes())
		sample.bytesField(2, values.Bytes())
		prof.bytesField(2, sample.Bytes())
	}
	prof.Write(locs.Bytes())
	prof.Write(funcs.Bytes())
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfile(t *testing.T) {
	stacks := [][]string{
		// map time lands on the layer that called it, not on its callers.
		{"runtime.mapassign_fast64", "fancy/internal/netsim.(*direction).send", "fancy/internal/sim.(*Sim).Run", "main.runGrid"},
		// a sub-package belongs to its parent's layer.
		{"runtime.mallocgc", "fancy/internal/fancy/tree.(*Hasher).Path", "fancy/internal/fancy.(*Detector).OnEgress", "fancy/internal/sim.(*Sim).Run"},
		// an inlined repo frame is innermost at its location.
		{"runtime.memmove", "fancy/internal/wire.(*Message).Marshal<fancy/internal/fancy.(*Detector).sendControl", "fancy/internal/sim.(*Sim).Run"},
		// background GC workers are their own bucket.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// no repo frame and no GC root: unattributed.
		{"runtime.futex", "runtime.mcall"},
		// the benchmark's own frames are not a layer.
		{"runtime.memclrNoHeapPointers", "main.(*pass).call", "main.main"},
		// reroute has no metrics of its own: charged to fleet.
		{"fancy/internal/reroute.(*App).Replay", "fancy/internal/fleet.(*Fleet).react"},
		// a repo package without a cpu_share metric is unattributed.
		{"fancy/internal/stats.Mean", "main.main"},
	}
	weights := []uint64{30, 20, 10, 15, 5, 5, 10, 5}
	shares, err := foldProfile(cannedProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"netsim": 0.30, "fancy": 0.20, "wire": 0.10, bucketGC: 0.15,
		bucketUnattributed: 0.15, "fleet": 0.10,
	}
	var sum float64
	for b, w := range want {
		if !near(shares[b], w) {
			t.Errorf("share of %s = %v, want %v", b, shares[b], w)
		}
	}
	for b, s := range shares {
		if _, ok := want[b]; !ok {
			t.Errorf("unexpected bucket %s = %v", b, s)
		}
		sum += s
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage folded without error")
	}
}

var (
	nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitSyntax = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesProgram holds BENCHMARK.json and the program's metric
// tables equal, both ways, and to the syntax the declaration is read with.
func TestDeclarationMatchesProgram(t *testing.T) {
	decl, err := readDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []declaredMetric, printed []metricDef) {
		units := make(map[string]string)
		for _, m := range declared {
			if !nameSyntax.MatchString(m.Name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, m.Name)
			}
			if !unitSyntax.MatchString(m.Unit) {
				t.Errorf("%s metric %s: unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better %q", kind, m.Name, m.Better)
			}
			if _, dup := units[m.Name]; dup {
				t.Errorf("%s metric %s declared twice", kind, m.Name)
			}
			units[m.Name] = m.Unit
		}
		seen := make(map[string]bool)
		for _, d := range printed {
			unit, ok := units[d.name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is printed but not declared in BENCHMARK.json", kind, d.name)
			case unit != d.unit:
				t.Errorf("%s metric %s: printed in %s, declared in %s", kind, d.name, d.unit, unit)
			}
			seen[d.name] = true
		}
		for _, m := range declared {
			if !seen[m.Name] {
				t.Errorf("%s metric %s is declared in BENCHMARK.json but never printed", kind, m.Name)
			}
		}
	}
	check("end-to-end", decl.EndToEnd, endToEnd)
	check("per-layer", decl.PerLayer, perLayer)

	hasSetup := false
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s = %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not declared")
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, program %s", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmokeWorkloads runs the test-sized version of every workload, traced,
// so that a change that breaks a workload — an API it calls, a verdict it
// expects — fails here and not in the performance pipeline.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, defaultSeed, 0, true, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Errorf("check failed: %s", p)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
			}
			if !near(r.e2e["exact_ratio"], 1) {
				t.Errorf("exact_ratio = %v, want 1", r.e2e["exact_ratio"])
			}
			if r.traced.falseVerdicts != 0 {
				t.Errorf("false verdicts = %d, want 0", r.traced.falseVerdicts)
			}
			for _, d := range endToEnd {
				if v := r.e2e[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
			var shares float64
			for _, d := range perLayer {
				v, ok := r.layer[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.name, v, ok)
				}
				if strings.HasSuffix(d.name, "cpu_share") {
					shares += v
				}
			}
			if math.Abs(shares-1) > 1e-6 {
				t.Errorf("cpu shares sum to %v, want 1", shares)
			}
			if len(r.layer) != len(perLayer) {
				t.Errorf("%d per-layer metrics computed, %d declared", len(r.layer), len(perLayer))
			}
			if r.layer["sim.events"] <= 0 || r.layer["fancy.sessions"] <= 0 {
				t.Errorf("sim.events %v and fancy.sessions %v must be counted",
					r.layer["sim.events"], r.layer["fancy.sessions"])
			}

			var line struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(resultLine(r)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatal("result line lacks correct, attempted or failed")
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced result line carries %d metrics, want the %d per-layer ones",
					len(line.Metrics), len(perLayer))
			}
		})
	}
}

// TestLayerSeparation asserts on the smoke sizes what the workloads were
// chosen for: counters of a bypassed layer stay at zero.
func TestLayerSeparation(t *testing.T) {
	counts := func(name string) map[string]uint64 {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		p := newPass(false)
		p.begin()
		w.run(p, defaultSeed, true)
		p.end()
		return p.counts
	}
	link, mesh, chaos, grid := counts("link-trace-tcp"), counts("abilene-mesh-udp"),
		counts("abilene-ctrl-chaos"), counts("grid144-full")
	for _, c := range []struct {
		name  string
		zero  []map[string]uint64
		above []map[string]uint64
	}{
		{"tcp.segments_sent", []map[string]uint64{mesh, chaos, grid}, []map[string]uint64{link}},
		{"mgmt.dgrams_sent", []map[string]uint64{link, mesh}, []map[string]uint64{chaos, grid}},
		{"fleet.elections", []map[string]uint64{link, mesh, grid}, []map[string]uint64{chaos}},
		{"hh.reports", []map[string]uint64{link, mesh, chaos}, []map[string]uint64{grid}},
		{"verify.checked", []map[string]uint64{link, mesh}, []map[string]uint64{chaos, grid}},
		{"netsim.pool_gets", []map[string]uint64{link, chaos}, []map[string]uint64{mesh, grid}},
	} {
		for _, m := range c.zero {
			if m[c.name] != 0 {
				t.Errorf("%s = %d on a workload that bypasses it", c.name, m[c.name])
			}
		}
		for _, m := range c.above {
			if m[c.name] == 0 {
				t.Errorf("%s = 0 on a workload that exercises it", c.name)
			}
		}
	}
}
