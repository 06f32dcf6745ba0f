package fleet

// The agent half of the heavy-hitter allocation loop. Each switch agent
// owns one hh.Allocator per monitored port; the detector's periodic
// digests feed it, and its promote/demote decisions are applied straight
// to the local detector. The loop never crosses the management plane —
// a partitioned switch keeps re-pointing its dynamic dedicated counters
// at whatever is hot right now.

import (
	"fancy/internal/hh"
)

// hhAllocStats aggregates one agent's allocation-loop counters.
type hhAllocStats struct {
	DecodeErrs uint64 // frames the strict decoder rejected
	ApplyErrs  uint64 // allocator decisions the detector refused
}

// onHHReport receives one encoded heavy-hitter digest from the local
// detector, runs it through the port's allocator and applies the
// resulting slot changes. The frame is decoded into the agent's one
// reused Report before anything else runs, as the borrowed frame requires.
func (a *switchAgent) onHHReport(port int, frame []byte) {
	rep := &a.hhRep
	if err := hh.DecodeReportInto(rep, frame); err != nil {
		a.hhStats.DecodeErrs++
		return
	}
	alloc, ok := a.hhAlloc[port]
	if !ok {
		alloc = hh.NewAllocator(a.f.cfg.HH.DynamicSlots, a.f.cfg.Fancy.HighPriority)
		a.hhAlloc[port] = alloc
	}
	det := a.f.Detectors[a.sw]
	for _, act := range alloc.Ingest(rep) {
		switch act.Kind {
		case hh.Demote:
			if err := det.Demote(port, act.Entry); err != nil {
				a.hhStats.ApplyErrs++
			}
		case hh.Promote:
			if _, err := det.Promote(port, act.Entry); err != nil {
				a.hhStats.ApplyErrs++
			}
		}
	}
}

// hhAllocTotals sums the per-port allocator stats plus the detector's
// dynamic-slot occupancy across the agent's monitored ports.
func (a *switchAgent) hhAllocTotals() (st hh.AllocStats, occupied, capacity int) {
	for _, alloc := range a.hhAlloc {
		s := alloc.Stats()
		st.Reports += s.Reports
		st.Promotions += s.Promotions
		st.Demotions += s.Demotions
		st.FlapsSuppressed += s.FlapsSuppressed
		st.Deferred += s.Deferred
		st.EpochResets += s.EpochResets
	}
	det := a.f.Detectors[a.sw]
	for port := range a.f.portLink[a.sw] {
		used, c := det.DynamicOccupancy(port)
		occupied += used
		capacity += c
	}
	return st, occupied, capacity
}
