package fleet

import (
	"fmt"
	"strings"

	"fancy/internal/fancy"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// AgentReport is one switch agent's management-plane slice of a Snapshot.
type AgentReport struct {
	Switch   string
	Online   bool
	Degraded bool
	Spooled  int // reports parked awaiting a reachable correlator
	Stats    mgmt.ClientStats
}

// ReplicaReport is one correlator replica's slice of a Snapshot.
type ReplicaReport struct {
	Name     string
	Active   bool // currently driving the fleet state machine
	Leader   bool
	Crashed  bool
	Promised uint64 // highest promised ballot (acceptor stable state)
	AccIndex uint64 // highest accepted log index
}

// LinkReport is the per-directed-link slice of a Snapshot.
type LinkReport struct {
	Link        string
	Health      Health
	Sessions    uint64 // counting sessions completed on the upstream end
	Alarms      int    // deduped alarms, lifetime
	Suppressed  int    // alarms discarded by the correlator
	Localized   bool
	LocalizedAt sim.Time
	Affected    []netsim.EntryID // failing dedicated entries, sorted
	TreePaths   int              // failing hash-tree paths (best-effort traffic)
}

// HHSnapshot aggregates the heavy-hitter allocation loop fleet-wide.
type HHSnapshot struct {
	Reports         uint64 // digests ingested by agents
	DecodeErrors    uint64 // frames rejected by the strict decoder
	ApplyErrors     uint64 // allocator decisions the detector refused
	Promotions      uint64 // allocator-driven slot promotions
	Demotions       uint64 // allocator-driven slot demotions
	FlapsSuppressed uint64 // demotion streaks broken by a reappearance
	Deferred        uint64 // promotions postponed for lack of a free slot
	EpochResets     uint64 // allocator wipes after a detector restart
	Occupied        int    // dynamic slots currently assigned, all ports
	Capacity        int    // dynamic slots provisioned, all ports
}

// Snapshot is the fleet's aggregate state at one instant.
type Snapshot struct {
	Time  sim.Time
	Links []LinkReport // in canonical (sorted) link order

	// Aggregates across all links/switches.
	Alarms        int
	Suppressed    int // the false-alarm count: alarms that did not localize
	Localizations int
	Reroutes      int
	Stats         fancy.DetectorStats // summed over every detector

	// Heavy-hitter allocation loop (populated only with Config.HH).
	HHEnabled bool
	HH        HHSnapshot

	// Verified-commit gate (populated only with Config.Verify).
	VerifyEnabled     bool
	Verify            VerifyStats
	VerifyHeldPending int // flips currently parked on the hold-and-retry list
	VerifyAtoms       int // atoms in the forwarding model

	// Management plane (populated only when the fleet runs over a
	// simulated management network).
	MgmtEnabled    bool
	MgmtNet        mgmt.NetStats
	MgmtHoles      int    // report seqs lost for good (spool overflow)
	MgmtDuplicates uint64 // duplicate deliveries suppressed at the correlator
	MgmtSpoolDrops uint64 // reports evicted from full agent spools, fleet-wide
	Corr           CorrelatorStats
	Agents         []AgentReport // in sorted switch order

	// Correlator replication (populated only with cfg.Replicas > 1).
	Replicated     bool
	Leader         string // replica currently driving the fleet
	CommitIndex    uint64
	QuorumDegraded bool            // leader running without its ack quorum
	Replicas       []ReplicaReport // in replica-id order
}

// Snapshot assembles the current fleet-wide view.
func (f *Fleet) Snapshot() Snapshot {
	now := f.S.Now()
	snap := Snapshot{
		Time:          now,
		Alarms:        f.Alarms,
		Suppressed:    f.Suppressed,
		Localizations: f.Localizations,
		Reroutes:      f.Reroutes,
	}
	for _, key := range f.order {
		ls := f.links[key]
		lr := LinkReport{
			Link:        key,
			Health:      f.healthOf(ls, now),
			Sessions:    f.Detectors[ls.dl.From].SessionsCompleted(ls.port),
			Alarms:      ls.alarms,
			Suppressed:  ls.suppressed,
			Localized:   ls.localized,
			LocalizedAt: ls.localizedAt,
			Affected:    f.AffectedEntries(key),
			TreePaths:   ls.treePaths,
		}
		snap.Links = append(snap.Links, lr)
	}
	if f.mgmtNet != nil {
		snap.MgmtEnabled = true
		snap.MgmtNet = f.mgmtNet.Stats
		snap.MgmtHoles = f.active().srv.Holes()
		snap.MgmtDuplicates = f.active().srv.Stats.Duplicates
		snap.Corr = f.Corr
		for _, sw := range f.switches {
			a := f.agents[sw]
			snap.Agents = append(snap.Agents, AgentReport{
				Switch:   sw,
				Online:   a.client.Online(),
				Degraded: a.degraded,
				Spooled:  a.client.SpoolLen(),
				Stats:    a.client.Stats,
			})
			snap.MgmtSpoolDrops += a.client.Stats.SpoolDrops
		}
		if g := f.group; g.n > 1 {
			snap.Replicated = true
			snap.Leader = f.Leader()
			snap.CommitIndex = f.active().commitIndex
			snap.QuorumDegraded = f.active().quorumLost
			for _, r := range g.replicas {
				rr := ReplicaReport{
					Name: r.name, Active: g.active == r.id,
					Leader: r.isLeader, Crashed: r.crashed,
					Promised: r.promised,
				}
				if r.acc != nil {
					rr.AccIndex = r.acc.Index
				}
				snap.Replicas = append(snap.Replicas, rr)
			}
		}
	}
	for _, det := range f.Detectors {
		st := det.Stats()
		snap.Stats.CtlCorrupted += st.CtlCorrupted
		snap.Stats.Retransmits += st.Retransmits
		snap.Stats.LinkDownEvents += st.LinkDownEvents
		snap.Stats.LinkUpEvents += st.LinkUpEvents
		snap.Stats.Restarts += st.Restarts
		snap.Stats.SessionsDiscarded += st.SessionsDiscarded
		snap.Stats.HHReports += st.HHReports
		snap.Stats.Promotions += st.Promotions
		snap.Stats.Demotions += st.Demotions
	}
	if f.cfg.HH != nil {
		snap.HHEnabled = true
		for _, sw := range f.switches {
			a := f.agents[sw]
			st, occupied, capacity := a.hhAllocTotals()
			snap.HH.Reports += st.Reports
			snap.HH.Promotions += st.Promotions
			snap.HH.Demotions += st.Demotions
			snap.HH.FlapsSuppressed += st.FlapsSuppressed
			snap.HH.Deferred += st.Deferred
			snap.HH.EpochResets += st.EpochResets
			snap.HH.DecodeErrors += a.hhStats.DecodeErrs
			snap.HH.ApplyErrors += a.hhStats.ApplyErrs
			snap.HH.Occupied += occupied
			snap.HH.Capacity += capacity
		}
	}
	if f.verifier != nil {
		snap.VerifyEnabled = true
		snap.Verify = f.Verify
		snap.VerifyHeldPending = len(f.verifyHeld)
		snap.VerifyAtoms = f.verifier.Atoms()
	}
	return snap
}

// Report renders the snapshot as a deterministic operator-facing text block.
func (s Snapshot) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet report @ %v\n", s.Time)
	fmt.Fprintf(&b, "  links=%d alarms=%d suppressed=%d localized=%d reroutes=%d\n",
		len(s.Links), s.Alarms, s.Suppressed, s.Localizations, s.Reroutes)
	fmt.Fprintf(&b, "  detectors: retransmits=%d ctl-corrupted=%d link-down=%d link-up=%d restarts=%d sessions-discarded=%d\n",
		s.Stats.Retransmits, s.Stats.CtlCorrupted, s.Stats.LinkDownEvents,
		s.Stats.LinkUpEvents, s.Stats.Restarts, s.Stats.SessionsDiscarded)
	if s.HHEnabled {
		fmt.Fprintf(&b, "  hh-alloc: reports=%d promotions=%d demotions=%d flaps-suppressed=%d deferred=%d epoch-resets=%d occupied=%d/%d decode-errors=%d apply-errors=%d\n",
			s.HH.Reports, s.HH.Promotions, s.HH.Demotions, s.HH.FlapsSuppressed,
			s.HH.Deferred, s.HH.EpochResets, s.HH.Occupied, s.HH.Capacity,
			s.HH.DecodeErrors, s.HH.ApplyErrors)
	}
	if s.VerifyEnabled {
		fmt.Fprintf(&b, "  verify: on checked=%d committed=%d rejected=%d repaired=%d held=%d retries=%d abandoned=%d fallbacks=%d errors=%d atoms-checked=%d pending-holds=%d model-atoms=%d\n",
			s.Verify.Checked, s.Verify.Committed, s.Verify.Rejected,
			s.Verify.Repaired, s.Verify.Held, s.Verify.Retries, s.Verify.Abandoned,
			s.Verify.Fallbacks, s.Verify.Errors, s.Verify.AtomsChecked,
			s.VerifyHeldPending, s.VerifyAtoms)
	}
	if s.MgmtEnabled {
		fmt.Fprintf(&b, "  mgmt: sent=%d delivered=%d lost=%d dup=%d partition-drops=%d holes=%d dedup=%d\n",
			s.MgmtNet.Sent, s.MgmtNet.Delivered, s.MgmtNet.Lost, s.MgmtNet.Duplicated,
			s.MgmtNet.PartitionDrops, s.MgmtHoles, s.MgmtDuplicates)
		fmt.Fprintf(&b, "  correlator: checkpoints=%d crashes=%d restores=%d stale-events=%d epoch-purges=%d get-fails=%d cmd-fails=%d handbacks=%d\n",
			s.Corr.Checkpoints, s.Corr.Crashes, s.Corr.Restores, s.Corr.StaleEvents,
			s.Corr.EpochPurges, s.Corr.GetFails, s.Corr.RerouteCmdFails, s.Corr.Handbacks)
		if s.Replicated {
			degraded := "quorum"
			if s.QuorumDegraded {
				degraded = "DEGRADED"
			}
			fmt.Fprintf(&b, "  replication: leader=%s commit=%d %s elections=%d failovers=%d quorum-losses=%d wire-rejects=%d\n",
				s.Leader, s.CommitIndex, degraded, s.Corr.Elections, s.Corr.Failovers,
				s.Corr.QuorumLosses, s.Corr.WireRejects)
			for _, rr := range s.Replicas {
				role := "follower"
				switch {
				case rr.Crashed:
					role = "CRASHED"
				case rr.Leader:
					role = "leader"
				}
				active := ""
				if rr.Active {
					active = " active"
				}
				fmt.Fprintf(&b, "  replica %-8s %-8s promised=%d acc=%d%s\n",
					rr.Name, role, rr.Promised, rr.AccIndex, active)
			}
		}
		for _, ar := range s.Agents {
			state := "online"
			if ar.Degraded {
				state = "DEGRADED"
			} else if !ar.Online {
				state = "offline"
			}
			fmt.Fprintf(&b, "  agent %-8s %-8s spool=%-3d reports=%d retries=%d exhausted=%d spool-drops=%d redirects=%d offline-transitions=%d\n",
				ar.Switch, state, ar.Spooled, ar.Stats.Reports, ar.Stats.Retries,
				ar.Stats.Exhausted, ar.Stats.SpoolDrops, ar.Stats.Redirects, ar.Stats.Offline)
		}
	}
	for _, lr := range s.Links {
		fmt.Fprintf(&b, "  %-28s %-9s sessions=%-5d", lr.Link, lr.Health, lr.Sessions)
		if lr.Alarms > 0 || lr.Suppressed > 0 {
			fmt.Fprintf(&b, " alarms=%d suppressed=%d", lr.Alarms, lr.Suppressed)
		}
		if lr.Localized {
			fmt.Fprintf(&b, " localized@%v", lr.LocalizedAt)
			if len(lr.Affected) > 0 {
				fmt.Fprintf(&b, " entries=%v", lr.Affected)
			}
			if lr.TreePaths > 0 {
				fmt.Fprintf(&b, " tree-paths=%d", lr.TreePaths)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
