package exp

// ISP-wide fleet scenario: the full Abilene deployment of internal/fleet,
// one injected gray link per trial. For every targeted directed link the
// driver builds a fresh network, aims a high-priority entry's traffic
// across that link, injects a per-entry blackhole, and measures whether the
// central correlator localizes exactly that link, how long it takes, and —
// when a provably loop-free detour exists — whether the fleet's gated
// reroute diverts the protected entry.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/fleet"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/topo"
)

// FleetRow is one trial: one gray directed link under a full Abilene fleet.
type FleetRow struct {
	Link       string
	Exact      bool     // localized exactly the injected link, nothing else
	TTL        sim.Time // failure injection → localization
	Suppressed int      // alarms the correlator discarded fleet-wide
	Protected  bool     // a loop-free backup existed and the entry was protected
	Rerouted   bool     // the protected entry was diverted to it
}

// FleetResult aggregates the per-link trials.
type FleetResult struct {
	Scale    Scale
	Verified bool // trials ran with the verified-commit gate
	Rows     []FleetRow
}

// Render prints the per-link table plus aggregates (the metrics the fleet
// snapshot reports: localization accuracy, time-to-localize, false alarms).
func (r *FleetResult) Render() string {
	var b strings.Builder
	gate := ""
	if r.Verified {
		gate = ", verified gate"
	}
	fmt.Fprintf(&b, "== ISP-wide fleet: Abilene gray-link localization (%s%s) ==\n", r.Scale, gate)
	headers := []string{"Gray link", "Localized", "TTL", "Suppressed", "Rerouted"}
	var rows [][]string
	exact := 0
	var ttls []sim.Time
	var maxTTL sim.Time
	for _, row := range r.Rows {
		loc := "MISS"
		if row.Exact {
			loc = "exact"
			exact++
			ttls = append(ttls, row.TTL)
			if row.TTL > maxTTL {
				maxTTL = row.TTL
			}
		}
		rr := "n/a"
		if row.Protected {
			rr = fmt.Sprintf("%v", row.Rerouted)
		}
		rows = append(rows, []string{row.Link, loc, row.TTL.String(),
			fmt.Sprintf("%d", row.Suppressed), rr})
	}
	b.WriteString(stats.Table(headers, rows))
	fmt.Fprintf(&b, "exact localization: %d/%d\n", exact, len(r.Rows))
	if len(ttls) > 0 {
		fmt.Fprintf(&b, "time-to-localize: median %v, max %v\n", ttlMedian(ttls), maxTTL)
	}
	return b.String()
}

// quickFleetLinks is the subsampled directed-link set at Quick scale:
// coast, core and east-coast links, both short and long delays.
var quickFleetLinks = []topo.DirectedLink{
	{From: "seattle", To: "sunnyvale"},
	{From: "kansascity", To: "denver"},
	{From: "chicago", To: "newyork"},
}

// abileneTargets is the gray-link target list of the fleet sweeps: the
// 3-link subsample at Quick scale, every directed link of Abilene (28,
// sorted) at Full.
func abileneTargets(scale Scale) []topo.DirectedLink {
	if scale != Full {
		return quickFleetLinks
	}
	var targets []topo.DirectedLink
	for _, l := range topo.Abilene().Links {
		targets = append(targets,
			topo.DirectedLink{From: l.A, To: l.B},
			topo.DirectedLink{From: l.B, To: l.A})
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].From != targets[j].From {
			return targets[i].From < targets[j].From
		}
		return targets[i].To < targets[j].To
	})
	return targets
}

// FleetAbileneWorkers runs the fleet scenario — Quick targets a 3-link
// subsample, Full every directed link of Abilene (28 trials) — with its
// independent trials on up to workers OS threads. With verified set every
// fleet runs the verified-commit gate, and the single-failure localization
// and reroute results must be indistinguishable from the ungated sweep:
// verification is free when the requested backup is safe. Each trial is its own simulator, seeded from the trial index
// alone and written to its own result slot, so the sweep is byte-identical
// for every worker count — parallelism here is pure wall-clock.
func FleetAbileneWorkers(scale Scale, seed int64, verified bool, workers int) *FleetResult {
	targets := abileneTargets(scale)
	res := &FleetResult{Scale: scale, Verified: verified}
	duration := pick(scale, 3*sim.Second, 5*sim.Second)
	res.Rows = make([]FleetRow, len(targets))
	workers = min(max(workers, 1), len(targets))
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(targets) {
					return
				}
				res.Rows[i] = fleetTrial(seed+int64(i), targets[i], duration, verified)
			}
		}()
	}
	wg.Wait()
	return res
}

// fleetTrial injects one gray link into a fresh Abilene fleet.
func fleetTrial(seed int64, dl topo.DirectedLink, duration sim.Time, verified bool) FleetRow {
	var cfg fleet.Config
	if verified {
		cfg.Verify = &fleet.VerifyConfig{}
	}
	g := runGrayLink(grayLinkTrial(seed, dl, duration, cfg), dl)
	return FleetRow{Link: dl.String(), Exact: g.exact, TTL: g.ttl, Suppressed: g.Fleet.Suppressed,
		Protected: g.protected, Rerouted: g.rerouted}
}

// The fleet-era trials all probe one high-priority entry and start dropping
// it one second in.
const (
	grayEntry  = netsim.EntryID(10)
	grayFailAt = sim.Second
)

// abileneTrial is what those trials share, as a value: Abilene with hosts
// hsrc and hdst attached at src and dst, grayEntry routed to hdst along
// shortest paths and probed at 2 Mbps from hsrc, and every failed link
// blackholing the entry from grayFailAt on. cfg carries the trial's
// control-plane choices (Mgmt, Replicas, Verify); the detector configuration
// is the same everywhere and is filled in here.
func abileneTrial(seed int64, src, dst string, duration sim.Time, cfg fleet.Config, failed ...topo.DirectedLink) fleet.Trial {
	spec := topo.Abilene()
	spec.Hosts = []topo.HostSpec{
		{Name: "hsrc", Attach: src},
		{Name: "hdst", Attach: dst},
	}
	cfg.Fancy = fancy.Config{
		HighPriority: []netsim.EntryID{grayEntry},
		Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     3,
	}
	t := fleet.Trial{
		Seed: seed, Spec: spec, Config: cfg, Duration: duration,
		Routes: map[netsim.EntryID]string{grayEntry: "hdst"},
		Flows:  []fleet.Flow{{From: "hsrc", Entry: grayEntry, RateBps: 2e6}},
	}
	for _, dl := range failed {
		t.Faults = append(t.Faults, fleet.Fault{At: grayFailAt, Kind: fleet.FaultGrayLink,
			Link: dl, Entries: []netsim.EntryID{grayEntry}, Loss: 1})
	}
	return t
}

// mustStart starts a trial the package itself composed: a failure is a bug.
func mustStart(t fleet.Trial) *fleet.Run {
	r, err := t.Start()
	if err != nil {
		panic(fmt.Sprintf("exp: fleet trial: %v", err))
	}
	return r
}

// grayLinkOutcome is what a single-gray-link trial reads out; the run stays
// available for the counters only some sweeps report.
type grayLinkOutcome struct {
	*fleet.Run
	exact     bool     // localized exactly the injected link, nothing else
	ttl       sim.Time // failure injection → localization
	protected bool     // a loop-free backup existed and the entry was protected
	rerouted  bool     // the protected entry was diverted to it
}

// grayLinkTrial is one gray directed link under a full Abilene fleet: traffic
// for grayEntry crosses dl, dl starts dropping it, and — only where a
// provably loop-free detour exists (topo.LoopFreeBackup) — the entry is
// protected by the fleet's gated reroute. faults are the trial's
// control-plane faults (correlator crash, leader kill).
func grayLinkTrial(seed int64, dl topo.DirectedLink, duration sim.Time, cfg fleet.Config, faults ...fleet.Fault) fleet.Trial {
	t := abileneTrial(seed, dl.From, dl.To, duration, cfg, dl)
	t.Protect = []fleet.Protection{{Switch: dl.From, Entry: grayEntry, PrimaryTo: dl.To}}
	t.Faults = append(t.Faults, faults...)
	return t
}

// runGrayLink runs a grayLinkTrial value and reads the outcome for dl.
func runGrayLink(t fleet.Trial, dl topo.DirectedLink) grayLinkOutcome {
	g := grayLinkOutcome{Run: mustStart(t)}
	g.protected = len(g.Protected) > 0
	g.Finish()

	f := g.Fleet
	loc := f.Localized()
	g.exact = len(loc) == 1 && loc[0] == dl.String()
	if g.exact {
		g.ttl = f.LocalizedAt(dl.String()) - grayFailAt
	}
	if g.protected {
		g.rerouted = f.Rerouted(dl.From, grayEntry)
	}
	return g
}
