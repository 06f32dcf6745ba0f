package hh

import (
	"slices"

	"fancy/internal/netsim"
)

// The controller's hysteresis is fixed; no experiment varies it. The pair
// (promoteAfter, demoteAfter) is the flap damper: a prefix must be hot in
// promoteAfter consecutive reports to earn a dedicated counter and absent
// from demoteAfter consecutive reports to lose it, so a prefix oscillating
// around the top-k boundary cannot churn the dedicated table every window.
const (
	promoteAfter = 2 // consecutive hot reports before promotion
	demoteAfter  = 3 // consecutive absent reports before demotion
	minCount     = 2 // reported prefixes below this window count are ignored
)

// ActionKind discriminates allocator decisions.
type ActionKind uint8

const (
	// Promote assigns the entry a dynamic dedicated counter.
	Promote ActionKind = iota
	// Demote releases the entry's dynamic dedicated counter.
	Demote
)

// Action is one allocation decision for the detector to apply.
type Action struct {
	Kind  ActionKind
	Entry netsim.EntryID
	Count uint32 // last reported window count (0 for demotions)
}

// AllocStats counts allocator activity for telemetry.
type AllocStats struct {
	Reports         uint64 // reports ingested
	Promotions      uint64
	Demotions       uint64
	FlapsSuppressed uint64 // cold streaks broken before demoteAfter fired
	Deferred        uint64 // promotion-ready prefixes parked on a full table
	EpochResets     uint64 // detector restarts that wiped the dynamic table
}

// Allocator is the per-port counter-allocation controller. It ingests the
// heavy-hitter reports for one port and emits promote/demote actions,
// deterministic in the report stream: tracked state is iterated in sorted
// order and promotion priority follows the report's canonical
// heaviest-first order.
type Allocator struct {
	capacity int // dynamic dedicated slots available on the port
	// pinned prefixes hold static (Table 3) dedicated counters already;
	// the controller never manages them.
	pinned map[netsim.EntryID]bool

	epoch     uint8
	haveEpoch bool

	hot       map[netsim.EntryID]int // candidate consecutive-hot streaks
	allocated map[netsim.EntryID]int // promoted prefixes -> consecutive-cold streak
	stats     AllocStats

	// Per-report scratch, reused by every Ingest: the report's eligible
	// entries and one sorted key list.
	present map[netsim.EntryID]uint32
	keys    []netsim.EntryID
}

// NewAllocator builds a controller for one port with capacity dynamic
// dedicated slots. pinned lists the statically assigned high-priority
// prefixes.
func NewAllocator(capacity int, pinned []netsim.EntryID) *Allocator {
	a := &Allocator{
		capacity:  capacity,
		pinned:    make(map[netsim.EntryID]bool, len(pinned)),
		hot:       make(map[netsim.EntryID]int),
		allocated: make(map[netsim.EntryID]int),
		present:   make(map[netsim.EntryID]uint32),
	}
	for _, e := range pinned {
		a.pinned[e] = true
	}
	return a
}

// Stats returns the lifetime counters.
func (a *Allocator) Stats() AllocStats { return a.stats }

// appendSortedKeys appends m's keys to dst in ascending order.
func appendSortedKeys[V any](dst []netsim.EntryID, m map[netsim.EntryID]V) []netsim.EntryID {
	base := len(dst)
	for e := range m {
		dst = append(dst, e)
	}
	slices.Sort(dst[base:])
	return dst
}

// Ingest consumes one report and returns the actions to apply, demotions
// first (they free the slots this round's promotions fill). A report from
// a new detector epoch means the dataplane restarted and every dynamic
// slot was wiped: the controller forgets its state and relearns. rep is
// only read during the call. The actions are a fresh slice (nil when there
// are none).
func (a *Allocator) Ingest(rep *Report) []Action {
	if !a.haveEpoch || rep.Epoch != a.epoch {
		if a.haveEpoch {
			a.stats.EpochResets++
		}
		a.epoch, a.haveEpoch = rep.Epoch, true
		clear(a.hot)
		clear(a.allocated)
	}
	a.stats.Reports++

	present := a.present
	clear(present)
	for _, ec := range rep.Entries {
		if ec.Count >= minCount && !a.pinned[ec.Entry] {
			present[ec.Entry] = ec.Count
		}
	}

	var actions []Action

	// Allocated prefixes: reset or advance the cold streak.
	a.keys = appendSortedKeys(a.keys[:0], a.allocated)
	for _, e := range a.keys {
		if _, ok := present[e]; ok {
			if a.allocated[e] > 0 {
				a.stats.FlapsSuppressed++
			}
			a.allocated[e] = 0
			continue
		}
		a.allocated[e]++
		if a.allocated[e] >= demoteAfter {
			delete(a.allocated, e)
			a.stats.Demotions++
			actions = append(actions, Action{Kind: Demote, Entry: e})
		}
	}

	// Candidates, heaviest first so contention for the last free slot is
	// resolved toward the bigger prefix.
	for _, ec := range rep.Entries {
		if _, ok := present[ec.Entry]; !ok {
			continue // pinned or under minCount
		}
		if _, ok := a.allocated[ec.Entry]; ok {
			continue
		}
		a.hot[ec.Entry]++
		if a.hot[ec.Entry] < promoteAfter {
			continue
		}
		if len(a.allocated) >= a.capacity {
			// Keep the streak: the prefix promotes the moment a slot
			// frees up.
			a.stats.Deferred++
			continue
		}
		delete(a.hot, ec.Entry)
		a.allocated[ec.Entry] = 0
		a.stats.Promotions++
		actions = append(actions, Action{Kind: Promote, Entry: ec.Entry, Count: present[ec.Entry]})
	}

	// A candidate absent from this report loses its streak entirely —
	// consecutive means consecutive.
	a.keys = appendSortedKeys(a.keys[:0], a.hot)
	for _, e := range a.keys {
		if _, ok := present[e]; !ok {
			delete(a.hot, e)
		}
	}
	return actions
}
