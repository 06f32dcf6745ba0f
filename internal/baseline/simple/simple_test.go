package simple

import (
	"slices"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// bed is the two-switch link, for probes and CBR traffic.
type bed struct{ *netsim.LinkBed }

func newBed(t *testing.T) *bed {
	t.Helper()
	edge := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 1e9}
	core := netsim.LinkConfig{Delay: 10 * sim.Millisecond, RateBps: 1e9}
	return &bed{netsim.NewLinkBed(sim.New(1), edge, core, false)}
}

func (b *bed) cbr(entry netsim.EntryID, pps int, stop sim.Time) {
	gap := sim.Second / sim.Time(pps)
	var tick func()
	tick = func() {
		if b.Sim.Now() >= stop {
			return
		}
		b.Src.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
			Proto: netsim.ProtoUDP, Size: 500})
		b.Sim.After(gap, tick)
	}
	b.Sim.After(0, tick)
}

func TestSingleCounterDetectsButCannotLocalize(t *testing.T) {
	b := newBed(t)
	p := NewProbe(b.Sim, SingleCounter{}, 50*sim.Millisecond)
	b.AttachProbe(p)
	b.cbr(1, 200, 3*sim.Second)
	b.cbr(2, 200, 3*sim.Second)
	b.Link.AB.SetFailure(netsim.FailEntries(1, sim.Second, 1.0, 1))
	b.Sim.Run(3 * sim.Second)

	if !p.EntryFlagged(1) {
		t.Fatal("failure not detected")
	}
	// The innocent entry is equally implicated: the design's fundamental
	// weakness (§5.2: FP count = all entries minus the failed ones).
	if !p.EntryFlagged(2) {
		t.Error("single counter should implicate every entry")
	}
	if fp := p.FalsePositives([]netsim.EntryID{1, 2, 3}, map[netsim.EntryID]bool{1: true}); fp != 2 {
		t.Errorf("false positives = %d, want 2", fp)
	}
}

func TestPerEntryExactLocalization(t *testing.T) {
	b := newBed(t)
	p := NewProbe(b.Sim, PerEntry{N: 10}, 50*sim.Millisecond)
	b.AttachProbe(p)
	for e := netsim.EntryID(0); e < 5; e++ {
		b.cbr(e, 100, 3*sim.Second)
	}
	b.Link.AB.SetFailure(netsim.FailEntries(1, sim.Second, 1.0, 3))
	b.Sim.Run(3 * sim.Second)

	if !p.EntryFlagged(3) {
		t.Fatal("failed entry not flagged")
	}
	universe := []netsim.EntryID{0, 1, 2, 3, 4}
	if fp := p.FalsePositives(universe, map[netsim.EntryID]bool{3: true}); fp != 0 {
		t.Errorf("per-entry design has %d false positives, want 0", fp)
	}
	at, ok := p.EntryFlaggedAt(3)
	if !ok || at < sim.Second || at > 1200*sim.Millisecond {
		t.Errorf("flagged at %v, want within ≈2 intervals of the failure", at)
	}
}

func TestPerEntryMemoryMatchesPaper(t *testing.T) {
	// §5.2: 250K entries with counting-protocol support require 320 MB
	// on a 64-port switch versus FANcY's 1.25 MB.
	mem := PerEntry{N: 250_000}.MemoryBytes(64)
	if mem < 150e6 || mem > 400e6 {
		t.Errorf("per-entry memory = %d MB, want ≈160-320 MB", mem/1e6)
	}
	// And §2.4: the full Internet table (~1M /24-ish prefixes at 32-bit
	// counters) is about 512 MB; our 80-bit figure is the same order.
	if m := (PerEntry{N: 1_000_000}).MemoryBytes(64); m < 300e6 {
		t.Errorf("Internet-table memory = %d MB, want hundreds of MB", m/1e6)
	}
}

func TestCountingBloomLocalizesWithCollisions(t *testing.T) {
	b := newBed(t)
	cb := CountingBloom{M: 64, K: 2, Seed: 3}
	p := NewProbe(b.Sim, cb, 50*sim.Millisecond)
	b.AttachProbe(p)
	for e := netsim.EntryID(0); e < 20; e++ {
		b.cbr(e, 100, 3*sim.Second)
	}
	b.Link.AB.SetFailure(netsim.FailEntries(1, sim.Second, 1.0, 7))
	b.Sim.Run(3 * sim.Second)

	if !p.EntryFlagged(7) {
		t.Fatal("failed entry not flagged by counting Bloom filter")
	}
	// A Bloom filter can implicate innocents but never misses the guilty.
	universe := make([]netsim.EntryID, 1000)
	for i := range universe {
		universe[i] = netsim.EntryID(i)
	}
	fp := p.FalsePositives(universe, map[netsim.EntryID]bool{7: true})
	// With 2 cells flagged of 64 and k=2, expected FPs ≈ 1000×(2/64)² ≈ 1;
	// anything wildly higher means the probe flags unrelated cells.
	if fp > 30 {
		t.Errorf("false positives = %d, want a small number", fp)
	}
}

func TestCountingBloomIndexProperties(t *testing.T) {
	cb := CountingBloom{M: 128, K: 3, Seed: 1}
	seen := make(map[int]bool)
	for e := netsim.EntryID(0); e < 500; e++ {
		idx := cb.AppendIndex(nil, e)
		if len(idx) != 3 {
			t.Fatalf("K=3 but got %d indices", len(idx))
		}
		for _, i := range idx {
			if i < 0 || i >= 128 {
				t.Fatalf("index %d out of range", i)
			}
			seen[i] = true
		}
	}
	if len(seen) < 100 {
		t.Errorf("only %d/128 cells used; hash badly skewed", len(seen))
	}
	if (CountingBloom{}).Name() == "" || (PerEntry{}).Name() == "" || (SingleCounter{}).Name() == "" {
		t.Error("designs must have names")
	}
}

func TestCountingDutyPausesCounting(t *testing.T) {
	b := newBed(t)
	p := NewProbe(b.Sim, SingleCounter{}, 100*sim.Millisecond)
	p.CountingDuty = 0.5
	b.AttachProbe(p)
	b.cbr(1, 1000, 2*sim.Second)
	b.Sim.Run(2 * sim.Second)
	// No failure: no flags even with pauses (pauses must be symmetric).
	if slices.Contains(p.flagged, true) {
		t.Errorf("duty-cycle pauses caused false flags: %v", p.flagged)
	}
}

func TestProbeIgnoresControlAndUnclassified(t *testing.T) {
	b := newBed(t)
	p := NewProbe(b.Sim, SingleCounter{}, 50*sim.Millisecond)
	b.AttachProbe(p)
	// Control and unclassified packets dropped by a failure must not
	// show up as mismatches (they are not counted at all).
	b.Sim.After(0, func() {
		b.Src.Send(&netsim.Packet{Proto: netsim.ProtoFancy, Entry: netsim.InvalidEntry,
			Dst: netsim.EntryAddr(1, 1), Size: 64})
	})
	b.Sim.Run(1 * sim.Second)
	if slices.Contains(p.flagged, true) {
		t.Error("control packets were counted")
	}
}

func TestPerEntryOutOfRange(t *testing.T) {
	p := PerEntry{N: 10}
	if got := p.AppendIndex(nil, netsim.EntryID(20)); len(got) != 0 {
		t.Errorf("out-of-range entry got cells %v", got)
	}
}

// TestProbeHooksDoNotAllocate: once the probe's scratch buffer has grown, a
// data packet costs no allocation on either side, for every design.
func TestProbeHooksDoNotAllocate(t *testing.T) {
	for _, d := range []Design{SingleCounter{}, PerEntry{N: 10}, CountingBloom{M: 64, K: 3, Seed: 1}} {
		t.Run(d.Name(), func(t *testing.T) {
			s := sim.New(1)
			p := NewProbe(s, d, 50*sim.Millisecond)
			pkt := &netsim.Packet{Entry: 7, Proto: netsim.ProtoUDP, Size: 500}
			e := netsim.EntryID(0)
			allocs := testing.AllocsPerRun(1000, func() {
				pkt.Entry = e % 10
				e++
				p.OnEgress(pkt, 0)
				p.OnIngress(pkt, 0)
			})
			if allocs != 0 {
				t.Fatalf("%v allocations per packet, want 0", allocs)
			}
			if !slices.ContainsFunc(p.up[0], func(n uint64) bool { return n > 0 }) || !slices.Equal(p.up[0], p.down[0]) {
				t.Fatalf("egress counted %v, ingress %v; want the same nonzero cells", p.up[0], p.down[0])
			}
		})
	}
}
