package exp

// Verified-reroute chaos suite: concurrent gray failures composed so that
// each switch's configured backup is individually loop-free but committing
// both installs a forwarding loop. Traffic washington→kansascity rides
// atlanta→indianapolis; atlanta's backup detours via houston, houston's
// backup detours via atlanta. Failing atlanta→indianapolis AND
// houston→kansascity makes atlanta divert first (houston's link carries no
// entry traffic until then), so houston's flip is provably unsafe by the
// time it localizes.
//
// The unverified baseline commits both flips and installs the
// atlanta↔houston loop — demonstrated by auditing a fresh forwarding model
// snapshotted from the post-run routes. The verified fleet rejects
// houston's flip with a loop verdict and repairs it via losangeles, keeping
// every trial's post-run state loop- and blackhole-free. The suite soaks
// the composition across seeds. (The host cost of one incremental safety
// check is the benchmark's verify.probe.check_ns.)

import (
	"fmt"
	"strings"

	"fancy/internal/fleet"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/stats"
	"fancy/internal/topo"
	"fancy/internal/verify"
)

// VerifiedRerouteRow is one verified chaos trial.
type VerifiedRerouteRow struct {
	Seed      int64
	Exact     bool     // both injected links localized, nothing else
	Rejected  uint64   // gate rejections (the composed loop)
	Repaired  uint64   // alternate-next-hop repairs
	Fallbacks uint64   // unverified commits (must be 0 here)
	RepairTTL sim.Time // failure injection → repair commit
	Unsafe    int      // unsafe atoms in the post-run audit (must be 0)
	Delivered int      // entry packets delivered end-to-end
}

// VerifiedRerouteResult holds the unverified baseline plus the verified
// seed sweep.
type VerifiedRerouteResult struct {
	Scale Scale
	Seed  int64

	// Unverified baseline: same scenario, no gate.
	BaselineLoopAtoms int      // post-run atoms stuck in a forwarding loop
	BaselineHoleAtoms int      // post-run blackholed atoms
	BaselineDelivered int      // packets that still made it end-to-end
	BaselineTTL       sim.Time // median localization TTL (localization is unharmed)

	Rows []VerifiedRerouteRow
}

// Render prints the baseline damage and the per-seed verified table.
func (r *VerifiedRerouteResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Verified reroute: concurrent-failure chaos suite (%s) ==\n", r.Scale)
	fmt.Fprintf(&b, "baseline (unverified): %d loop atom(s), %d blackhole atom(s), %d pkts delivered\n",
		r.BaselineLoopAtoms, r.BaselineHoleAtoms, r.BaselineDelivered)
	headers := []string{"Seed", "Localized", "Rejected", "Repaired", "Repair TTL", "Unsafe atoms", "Delivered"}
	var rows [][]string
	for _, row := range r.Rows {
		loc := "MISS"
		if row.Exact {
			loc = "exact"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Seed), loc,
			fmt.Sprintf("%d", row.Rejected), fmt.Sprintf("%d", row.Repaired),
			row.RepairTTL.String(), fmt.Sprintf("%d", row.Unsafe),
			fmt.Sprintf("%d", row.Delivered),
		})
	}
	b.WriteString(stats.Table(headers, rows))
	return b.String()
}

// VerifiedReroute runs the chaos suite: one unverified baseline trial (to
// demonstrate the loop the gate exists to prevent) plus pick(8, 40)
// verified trials across consecutive seeds.
func VerifiedReroute(scale Scale, seed int64) *VerifiedRerouteResult {
	res := &VerifiedRerouteResult{Scale: scale, Seed: seed}
	duration := pick(scale, 4*sim.Second, 6*sim.Second)

	// Trial 0 is the unverified baseline, trial i the verified seed+i-1.
	outs := trials(1+pick(scale, 8, 40), func(i int) chaosOut {
		if i == 0 {
			return verifiedChaosTrial(seed, duration, false)
		}
		return verifiedChaosTrial(seed+int64(i-1), duration, true)
	})
	base := outs[0]
	res.BaselineLoopAtoms = base.loopAtoms
	res.BaselineHoleAtoms = base.holeAtoms
	res.BaselineDelivered = base.delivered
	res.BaselineTTL = ttlMedian(base.locTTLs)
	for _, out := range outs[1:] {
		res.Rows = append(res.Rows, out.row())
	}
	return res
}

type chaosOut struct {
	seed      int64
	exact     bool
	locTTLs   []sim.Time
	rejected  uint64
	repaired  uint64
	fallbacks uint64
	repairTTL sim.Time
	loopAtoms int
	holeAtoms int
	delivered int
}

func (c chaosOut) row() VerifiedRerouteRow {
	return VerifiedRerouteRow{
		Seed: c.seed, Exact: c.exact,
		Rejected: c.rejected, Repaired: c.repaired, Fallbacks: c.fallbacks,
		RepairTTL: c.repairTTL, Unsafe: c.loopAtoms + c.holeAtoms,
		Delivered: c.delivered,
	}
}

// verifiedChaosTrial runs one washington→kansascity double-failure trial.
func verifiedChaosTrial(seed int64, duration sim.Time, verified bool) chaosOut {
	var cfg fleet.Config
	if verified {
		cfg.Verify = &fleet.VerifyConfig{}
	}
	t := abileneTrial(seed, "washington", "kansascity", duration, cfg,
		topo.DirectedLink{From: "atlanta", To: "indianapolis"},
		topo.DirectedLink{From: "houston", To: "kansascity"})
	t.Protect = []fleet.Protection{
		{Switch: "atlanta", Entry: grayEntry, PrimaryTo: "indianapolis", BackupTo: "houston"},
		{Switch: "houston", Entry: grayEntry, PrimaryTo: "kansascity", BackupTo: "atlanta"},
	}
	r := mustStart(t)
	f := r.Fleet

	out := chaosOut{seed: seed}
	r.Net.Hosts["hdst"].Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		if p.Entry == grayEntry {
			out.delivered++
		}
	})
	r.Finish()

	loc := f.Localized()
	out.exact = len(loc) == 2 &&
		loc[0] == "atlanta->indianapolis" && loc[1] == "houston->kansascity"
	for _, key := range loc {
		out.locTTLs = append(out.locTTLs, f.LocalizedAt(key)-grayFailAt)
	}
	for _, ev := range f.Events {
		if ev.Kind == fleet.EventRerouteRepaired && out.repairTTL == 0 {
			out.repairTTL = ev.Time - grayFailAt
		}
	}
	// Audit the post-run forwarding state. The verified fleet audits its own
	// incremental model; the baseline has none, so snapshot a fresh model
	// from the final installed routes — same verdict semantics.
	var audit *verify.Verdict
	if verified {
		out.rejected = f.Verify.Rejected
		out.repaired = f.Verify.Repaired
		out.fallbacks = f.Verify.Fallbacks
		audit = f.Verifier().Audit()
	} else {
		audit = verify.NewModel(r.Net).Audit()
	}
	out.loopAtoms = audit.Loops()
	out.holeAtoms = audit.Blackholes()
	return out
}
