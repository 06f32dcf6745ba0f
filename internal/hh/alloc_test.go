package hh

import (
	"reflect"
	"testing"

	"fancy/internal/netsim"
)

func rep(epoch uint8, seq uint32, entries ...EntryCount) *Report {
	return &Report{Epoch: epoch, Seq: seq, Entries: entries}
}

func acts(a *Allocator, r *Report) []Action { return a.Ingest(r) }

// TestAllocPromoteHysteresis: one hot report is not enough; promoteAfter
// consecutive reports are.
func TestAllocPromoteHysteresis(t *testing.T) {
	a := NewAllocator(4, nil)
	if out := acts(a, rep(0, 0, EntryCount{Entry: 5, Count: 100})); len(out) != 0 {
		t.Fatalf("promoted after one report: %v", out)
	}
	out := acts(a, rep(0, 1, EntryCount{Entry: 5, Count: 100}))
	want := []Action{{Kind: Promote, Entry: 5, Count: 100}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	if _, ok := a.allocated[5]; !ok || len(a.allocated) != 1 {
		t.Fatal("allocation state not recorded")
	}
	// A streak broken by one absent report starts over.
	b := NewAllocator(4, nil)
	acts(b, rep(0, 0, EntryCount{Entry: 9, Count: 50}))
	acts(b, rep(0, 1))
	if out := acts(b, rep(0, 2, EntryCount{Entry: 9, Count: 50})); len(out) != 0 {
		t.Fatalf("broken streak still promoted: %v", out)
	}
}

// TestAllocDemoteHysteresisAndFlaps: demotion needs demoteAfter
// consecutive absences; a briefly-absent prefix is a suppressed flap.
func TestAllocDemoteHysteresisAndFlaps(t *testing.T) {
	a := NewAllocator(4, nil)
	acts(a, rep(0, 0, EntryCount{Entry: 5, Count: 100}))
	acts(a, rep(0, 1, EntryCount{Entry: 5, Count: 100}))
	// Two absences, then hot again: no demotion, one suppressed flap.
	acts(a, rep(0, 2))
	acts(a, rep(0, 3))
	if out := acts(a, rep(0, 4, EntryCount{Entry: 5, Count: 90})); len(out) != 0 {
		t.Fatalf("flap demoted: %v", out)
	}
	if a.Stats().FlapsSuppressed != 1 {
		t.Fatalf("FlapsSuppressed = %d, want 1", a.Stats().FlapsSuppressed)
	}
	// Three consecutive absences demote.
	acts(a, rep(0, 5))
	acts(a, rep(0, 6))
	out := acts(a, rep(0, 7))
	if !reflect.DeepEqual(out, []Action{{Kind: Demote, Entry: 5}}) {
		t.Fatalf("got %v, want demote of 5", out)
	}
	if len(a.allocated) != 0 || a.Stats().Demotions != 1 {
		t.Fatal("demotion state not recorded")
	}
}

// TestAllocCapacityAndDeferral: a full table defers promotions until a
// demotion frees a slot, and the deferred prefix promotes in the same
// ingest that demotes (demotions are emitted first).
func TestAllocCapacityAndDeferral(t *testing.T) {
	a := NewAllocator(1, nil)
	acts(a, rep(0, 0, EntryCount{Entry: 1, Count: 100}))
	acts(a, rep(0, 1, EntryCount{Entry: 1, Count: 100}))
	acts(a, rep(0, 2, EntryCount{Entry: 1, Count: 100}, EntryCount{Entry: 2, Count: 50}))
	if out := acts(a, rep(0, 3, EntryCount{Entry: 1, Count: 100}, EntryCount{Entry: 2, Count: 50})); len(out) != 0 {
		t.Fatalf("promoted past capacity: %v", out)
	}
	if a.Stats().Deferred == 0 {
		t.Fatal("deferral not counted")
	}
	// Entry 1 goes cold; after demoteAfter reports entry 2 takes the slot
	// in the same action batch, demote first.
	acts(a, rep(0, 4, EntryCount{Entry: 2, Count: 60}))
	acts(a, rep(0, 5, EntryCount{Entry: 2, Count: 60}))
	out := acts(a, rep(0, 6, EntryCount{Entry: 2, Count: 60}))
	want := []Action{{Kind: Demote, Entry: 1}, {Kind: Promote, Entry: 2, Count: 60}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}

// TestAllocPinnedAndMinCount: pinned prefixes and sub-threshold counts are
// never candidates.
func TestAllocPinnedAndMinCount(t *testing.T) {
	a := NewAllocator(4, []netsim.EntryID{7})
	for seq := uint32(0); seq < 2; seq++ {
		out := acts(a, rep(0, seq, EntryCount{Entry: 7, Count: 1000}, EntryCount{Entry: 3, Count: minCount - 1}))
		if len(out) != 0 {
			t.Fatalf("pinned or sub-threshold prefix promoted: %v", out)
		}
	}
}

// TestAllocEpochReset: a report from a new detector epoch wipes the
// controller state — the dataplane restarted and the slots are gone.
func TestAllocEpochReset(t *testing.T) {
	a := NewAllocator(4, nil)
	acts(a, rep(0, 0, EntryCount{Entry: 5, Count: 100}))
	acts(a, rep(0, 1, EntryCount{Entry: 5, Count: 100}))
	if len(a.allocated) != 1 {
		t.Fatal("setup failed")
	}
	out := acts(a, rep(1, 0, EntryCount{Entry: 5, Count: 100}))
	if a.Stats().EpochResets != 1 {
		t.Fatalf("EpochResets = %d, want 1", a.Stats().EpochResets)
	}
	// State was wiped, so the prefix earns its slot afresh: one report of
	// the new epoch is not enough, the second promotes it.
	if len(out) != 0 || len(a.allocated) != 0 {
		t.Fatalf("got %v with %d allocated, want the wiped state to start over", out, len(a.allocated))
	}
	out = acts(a, rep(1, 1, EntryCount{Entry: 5, Count: 100}))
	if !reflect.DeepEqual(out, []Action{{Kind: Promote, Entry: 5, Count: 100}}) {
		t.Fatalf("got %v, want fresh promote", out)
	}
}

// TestAllocDeterministicOrder: with many prefixes in one report, actions
// come out in a deterministic order across runs.
func TestAllocDeterministicOrder(t *testing.T) {
	mk := func() []Action {
		a := NewAllocator(8, nil)
		var ecs []EntryCount
		for i := 0; i < 8; i++ {
			ecs = append(ecs, EntryCount{Entry: netsim.EntryID(20 - i), Count: uint32(100 - i)})
		}
		out := a.Ingest(rep(0, 0, ecs...))
		out = append(out, a.Ingest(rep(0, 1, ecs...))...)
		for seq := uint32(2); seq < 5; seq++ {
			out = append(out, a.Ingest(rep(0, seq))...)
		}
		return out
	}
	a, b := mk(), mk()
	if len(a) != 16 {
		t.Fatalf("got %d actions, want 8 promotions and 8 demotions: %v", len(a), a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("action order differs across identical runs:\n%v\n%v", a, b)
	}
}
