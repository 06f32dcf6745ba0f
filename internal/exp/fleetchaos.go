package exp

// Fleet chaos sweep: the FleetAbilene scenario re-run over a degraded
// management plane. Each configuration fixes a management-network loss rate
// and a correlator crash schedule; every targeted directed link then gets
// its own trial (fresh Abilene, one injected gray link). The claim under
// test is the survivability contract: impairments may slow localization
// down (TTL degrades) but must never change the verdict — accuracy stays
// exact on every directed link, with zero duplicate confirmed verdicts.

import (
	"fmt"
	"strings"

	"fancy/internal/fleet"
	"fancy/internal/mgmt"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/topo"
)

// ChaosFleetConfig is one cell of the sweep: a management-plane impairment
// level plus a correlator crash schedule, optionally with a replicated
// correlator group.
type ChaosFleetConfig struct {
	Name     string
	Loss     float64 // management-datagram loss probability
	Crash    bool    // crash the correlator mid-run, restart 300 ms later
	Replicas int     // correlator replicas (0/1 = single instance)
}

// fleetChaosConfigs is the sweep grid. loss20+crash is the single-instance
// acceptance configuration from the checkpoint/restart work (20% loss plus
// a crash/restart spanning the first evidence window); replica3+leaderkill
// is the replicated acceptance configuration — same impairment, but the
// crashed correlator is the LEADER of a 3-replica consensus group, and
// recovery is a phi-driven election plus replicated-log restore instead of
// a scheduled local restart.
func fleetChaosConfigs() []ChaosFleetConfig {
	return []ChaosFleetConfig{
		{Name: "perfect", Loss: 0, Crash: false},
		{Name: "loss10", Loss: 0.10, Crash: false},
		{Name: "loss20+crash", Loss: 0.20, Crash: true},
		{Name: "replica3+leaderkill", Loss: 0.20, Crash: true, Replicas: 3},
	}
}

// ChaosFleetRow is one trial of the sweep.
type ChaosFleetRow struct {
	Config     string
	Link       string
	Exact      bool     // localized exactly the injected link, nothing else
	Verdicts   int      // localization events for the link (must be <=1)
	TTL        sim.Time // failure injection → localization
	Rerouted   bool     // protected entry diverted (where a detour exists)
	Protected  bool
	Stale      uint64 // stale-epoch reports discarded
	Handbacks  uint64 // degraded-mode reconciliations
	MgmtLost   uint64 // management datagrams dropped by the impairments
	MgmtHoles  int    // report seqs lost for good
	Duplicates uint64 // transport duplicates suppressed
	Failovers  uint64 // replica leader takeovers (replicated cells only)
}

// ChaosFleetResult aggregates the sweep.
type ChaosFleetResult struct {
	Scale Scale
	Rows  []ChaosFleetRow
}

// Render prints one aggregate block per configuration plus the per-link
// table of the most impaired configuration.
func (r *ChaosFleetResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fleet chaos sweep: localization vs management-plane faults (%s) ==\n", r.Scale)
	byCfg := make(map[string][]ChaosFleetRow)
	var order []string
	for _, row := range r.Rows {
		if _, ok := byCfg[row.Config]; !ok {
			order = append(order, row.Config)
		}
		byCfg[row.Config] = append(byCfg[row.Config], row)
	}
	headers := []string{"Config", "Exact", "Dup verdicts", "TTL median", "TTL max", "Mgmt lost", "Holes", "Failovers"}
	var rows [][]string
	for _, cfg := range order {
		trials := byCfg[cfg]
		exact, dups := 0, 0
		var lost, failovers uint64
		holes := 0
		var ttls []sim.Time
		var max sim.Time
		for _, t := range trials {
			if t.Exact {
				exact++
				ttls = append(ttls, t.TTL)
				if t.TTL > max {
					max = t.TTL
				}
			}
			if t.Verdicts > 1 {
				dups++
			}
			lost += t.MgmtLost
			holes += t.MgmtHoles
			failovers += t.Failovers
		}
		rows = append(rows, []string{cfg,
			fmt.Sprintf("%d/%d", exact, len(trials)),
			fmt.Sprintf("%d", dups), ttlMedian(ttls).String(), max.String(),
			fmt.Sprintf("%d", lost), fmt.Sprintf("%d", holes),
			fmt.Sprintf("%d", failovers)})
	}
	b.WriteString(stats.Table(headers, rows))
	// Per-link detail for the most impaired configuration.
	worst := order[len(order)-1]
	fmt.Fprintf(&b, "-- per-link detail, %s --\n", worst)
	dheaders := []string{"Gray link", "Localized", "TTL", "Rerouted", "Stale", "Handbacks"}
	var drows [][]string
	for _, t := range byCfg[worst] {
		loc := "MISS"
		if t.Exact {
			loc = "exact"
		}
		rr := "n/a"
		if t.Protected {
			rr = fmt.Sprintf("%v", t.Rerouted)
		}
		drows = append(drows, []string{t.Link, loc, t.TTL.String(), rr,
			fmt.Sprintf("%d", t.Stale), fmt.Sprintf("%d", t.Handbacks)})
	}
	b.WriteString(stats.Table(dheaders, drows))
	return b.String()
}

// FleetChaos runs the sweep: every configuration over the Quick 3-link
// subsample or, at Full scale, over all 28 directed links of Abilene.
func FleetChaos(scale Scale, seed int64) *ChaosFleetResult {
	targets := abileneTargets(scale)
	configs := fleetChaosConfigs()
	duration := pick(scale, 3*sim.Second, 5*sim.Second)
	return &ChaosFleetResult{Scale: scale, Rows: trials(len(configs)*len(targets), func(c int) ChaosFleetRow {
		ci, i := c/len(targets), c%len(targets)
		return fleetChaosTrial(seed+int64(ci*1000+i), targets[i], duration, configs[ci])
	})}
}

// chaosTrial is one gray link under one impairment configuration, as a value.
func chaosTrial(seed int64, dl topo.DirectedLink, duration sim.Time, cfg ChaosFleetConfig) fleet.Trial {
	var faults []fleet.Fault
	if cfg.Crash {
		// Kill the active replica spanning the first evidence window and
		// restart it 300 ms later. With peers, recovery is a phi-driven
		// election and a replicated-log restore, and the dead replica
		// rejoins as a follower; a lone replica restores from its last
		// checkpoint at the restart.
		faults = []fleet.Fault{
			{At: grayFailAt + 100*sim.Millisecond, Kind: fleet.FaultKillLeader},
			{At: grayFailAt + 400*sim.Millisecond, Kind: fleet.FaultRestartKilled},
		}
	}
	return grayLinkTrial(seed, dl, duration, fleet.Config{
		Mgmt:     &mgmt.Config{Loss: cfg.Loss, Duplicate: cfg.Loss / 2, Jitter: sim.Millisecond},
		Replicas: cfg.Replicas,
	}, faults...)
}

// fleetChaosTrial runs chaosTrial and reads out the sweep's row.
func fleetChaosTrial(seed int64, dl topo.DirectedLink, duration sim.Time, cfg ChaosFleetConfig) ChaosFleetRow {
	g := runGrayLink(chaosTrial(seed, dl, duration, cfg), dl)
	row := ChaosFleetRow{Config: cfg.Name, Link: dl.String(), Exact: g.exact, TTL: g.ttl,
		Protected: g.protected, Rerouted: g.rerouted, Verdicts: g.Verdicts(dl.String())}
	snap := g.Fleet.Snapshot()
	row.Stale = snap.Corr.StaleEvents
	row.Handbacks = snap.Corr.Handbacks
	row.MgmtLost = snap.MgmtNet.Lost
	row.MgmtHoles = snap.MgmtHoles
	row.Duplicates = snap.MgmtDuplicates
	row.Failovers = snap.Corr.Failovers
	return row
}
