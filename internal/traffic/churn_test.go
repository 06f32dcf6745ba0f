package traffic

import (
	"reflect"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

func churnCfg(seed int64) ChurnConfig {
	return ChurnConfig{
		Entries:       48,
		AggregateBps:  20e6,
		ShiftInterval: 2 * sim.Second,
		Epochs:        4,
		Seed:          seed,
	}
}

func TestChurnDeterministicPerSeed(t *testing.T) {
	a, b := NewChurnSchedule(churnCfg(7)), NewChurnSchedule(churnCfg(7))
	for e := 0; e < a.Epochs(); e++ {
		if !reflect.DeepEqual(a.Ranks(e), b.Ranks(e)) {
			t.Fatalf("epoch %d ranks differ for the same seed", e)
		}
		if !reflect.DeepEqual(a.NewlyHot(e), b.NewlyHot(e)) {
			t.Fatalf("epoch %d newly-hot sets differ for the same seed", e)
		}
	}
	c := NewChurnSchedule(churnCfg(8))
	same := true
	for e := 1; e < a.Epochs(); e++ {
		if !reflect.DeepEqual(a.NewlyHot(e), c.NewlyHot(e)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical shift schedules")
	}
}

// A negative HotRanks means "unset": the schedule equals the defaulted one
// instead of slicing perm with it.
func TestChurnNegativeCountsMeanDefault(t *testing.T) {
	neg := churnCfg(7)
	neg.HotRanks = -3
	got, want := NewChurnSchedule(neg), NewChurnSchedule(churnCfg(7))
	if got.Config() != want.Config() {
		t.Fatalf("config %+v, want %+v", got.Config(), want.Config())
	}
	for e := 0; e < want.Epochs(); e++ {
		if !reflect.DeepEqual(got.Ranks(e), want.Ranks(e)) {
			t.Fatalf("epoch %d ranks differ from the defaulted schedule", e)
		}
	}
}

func TestChurnNewlyHotIsGenuinelyNew(t *testing.T) {
	cs := NewChurnSchedule(churnCfg(7))
	if len(cs.NewlyHot(0)) != 0 {
		t.Fatalf("epoch 0 has newly-hot entries: %v", cs.NewlyHot(0))
	}
	head := cs.Config().HotRanks
	everHot := make(map[netsim.EntryID]bool)
	for _, entry := range cs.Ranks(0)[:head] {
		everHot[entry] = true
	}
	for e := 1; e < cs.Epochs(); e++ {
		fresh := cs.NewlyHot(e)
		if len(fresh) != churnShiftCount {
			t.Fatalf("epoch %d promoted %d entries, want %d", e, len(fresh), churnShiftCount)
		}
		for i, entry := range fresh {
			if everHot[entry] {
				t.Fatalf("epoch %d re-promoted a previously hot entry %d", e, entry)
			}
			// The fresh batch occupies the top ranks, in order.
			if cs.Ranks(e)[i] != entry {
				t.Fatalf("epoch %d rank %d is %d, want newly-hot %d", e, i, cs.Ranks(e)[i], entry)
			}
		}
		for _, entry := range cs.Ranks(e)[:head] {
			everHot[entry] = true
		}
	}
}

func TestChurnRates(t *testing.T) {
	cs := NewChurnSchedule(churnCfg(7))
	for e := 0; e < cs.Epochs(); e++ {
		// Rank 0 carries the largest Zipf share; the emitted aggregate is
		// the configured load minus only the sub-threshold tail.
		top := cs.Ranks(e)[0]
		if cs.Rate(e, top) <= cs.Rate(e, cs.Ranks(e)[1]) {
			t.Fatalf("epoch %d: rank 0 is not the heaviest", e)
		}
		emitted := emittedBps(cs, e)
		if emitted < 0.9*cs.Config().AggregateBps || emitted > cs.Config().AggregateBps {
			t.Fatalf("epoch %d emits %.0f bps of %.0f configured", e, emitted, cs.Config().AggregateBps)
		}
	}
	if cs.Rate(0, netsim.EntryID(9999)) != 0 {
		t.Fatal("unknown entry has a rate")
	}
}

// TestChurnLaunch drives the schedule through a real host and checks the
// measured aggregate of one epoch against the configured load.
func TestChurnLaunch(t *testing.T) {
	s := sim.New(1)
	src := netsim.NewHost(s, "src")
	sink := netsim.NewHost(s, "sink")
	netsim.Connect(s, src, 0, sink, 0,
		netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 10e9})
	var bytes int64
	sink.Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		bytes += int64(p.Size)
	})

	cfg := churnCfg(7)
	cfg.ShiftInterval = sim.Second
	cfg.Epochs = 2
	cs := NewChurnSchedule(cfg)
	if n := cs.Launch(s, src); n == 0 {
		t.Fatal("no sources scheduled")
	}
	s.Run(cs.EpochStart(1)) // first epoch only
	got := float64(bytes) * 8
	want := emittedBps(cs, 0)
	if got < 0.85*want || got > 1.1*want {
		t.Fatalf("epoch 0 delivered %.0f bps, want ≈%.0f", got, want)
	}

	// The second epoch's newly-hot entries start flowing only after the
	// boundary.
	fresh := cs.NewlyHot(1)[0]
	if cs.Rate(1, fresh) <= 0 {
		t.Fatalf("newly-hot entry %d not emitted in epoch 1", fresh)
	}
	var freshBytes int64
	sink.Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		if p.Entry == fresh {
			freshBytes += int64(p.Size)
		}
	})
	s.Run(cs.Duration())
	if freshBytes == 0 {
		t.Fatalf("newly-hot entry %d never arrived in epoch 1", fresh)
	}
}

// emittedBps is the aggregate rate Launch emits during epoch e:
// AggregateBps minus the sub-minEntryBps tail.
func emittedBps(cs *ChurnSchedule, e int) float64 {
	var total float64
	for _, entry := range cs.ranks[e] {
		total += cs.Rate(e, entry)
	}
	return total
}
