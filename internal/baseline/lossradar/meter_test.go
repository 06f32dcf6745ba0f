package lossradar

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

type meterBed struct {
	*netsim.LinkBed
	m *MeterPair
}

func newMeterBed(t *testing.T, cells int, interval sim.Time) *meterBed {
	t.Helper()
	lc := netsim.LinkConfig{Delay: sim.Millisecond, RateBps: 10e9}
	b := &meterBed{LinkBed: netsim.NewLinkBed(sim.New(1), lc, lc, false)}
	b.m = NewMeterPair(b.Sim, cells, interval)
	b.AttachProbe(b.m)
	return b
}

func (b *meterBed) cbr(entry netsim.EntryID, pps int, stop sim.Time) {
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

func TestMeterDecodesLowLoss(t *testing.T) {
	// 1000 pps, 10 ms batches → 10 packets/batch; 1% loss ≈ 0.1 losses
	// per batch; 64 cells decode trivially and recover the exact per-
	// entry loss counts.
	b := newMeterBed(t, 64, 10*sim.Millisecond)
	b.cbr(7, 1000, 3*sim.Second)
	b.cbr(8, 1000, 3*sim.Second)
	fl := netsim.FailEntries(3, sim.Second, 0.01, 7)
	b.Link.AB.SetFailure(fl)
	b.Sim.Run(4 * sim.Second)

	if b.m.Batches == 0 {
		t.Fatal("no batches extracted")
	}
	if f := decodeFraction(b.m); f < 0.99 {
		t.Fatalf("decode fraction = %.2f at low loss, want ≈1", f)
	}
	if b.m.LostRecovered[7] == 0 {
		t.Fatal("losses not recovered for the failing entry")
	}
	if b.m.LostRecovered[8] != 0 {
		t.Error("phantom losses recovered for a healthy entry")
	}
	// The recovered count matches the injected drops exactly — LossRadar
	// reconstructs per-packet identities, not estimates.
	if got, want := b.m.LostRecovered[7], fl.Dropped.Data; got != want {
		t.Errorf("recovered %d losses, injected %d", got, want)
	}
}

func TestMeterStallsWhenUndersized(t *testing.T) {
	// The Table 2 regime: losses per batch ≫ cells. 4000 pps × 50% loss
	// × 10 ms = ≈20 losses/batch through an 8-cell filter: most batches
	// stall and the controller recovers (almost) nothing.
	b := newMeterBed(t, 8, 10*sim.Millisecond)
	b.cbr(7, 4000, 2*sim.Second)
	fl := netsim.FailEntries(3, 500*sim.Millisecond, 0.5, 7)
	b.Link.AB.SetFailure(fl)
	b.Sim.Run(3 * sim.Second)

	if b.m.StalledBatches == 0 {
		t.Fatal("no stalled batches despite overload")
	}
	if f := decodeFraction(b.m); f > 0.6 {
		t.Fatalf("decode fraction = %.2f under overload, want low", f)
	}
	// What was recovered is far less than what was lost.
	if b.m.LostRecovered[7] >= fl.Dropped.Data {
		t.Error("recovered as much as was lost despite stalls")
	}
}

func TestMeterLosslessBatchesDecodeEmpty(t *testing.T) {
	b := newMeterBed(t, 32, 10*sim.Millisecond)
	b.cbr(7, 2000, sim.Second)
	b.Sim.Run(2 * sim.Second)
	if f := decodeFraction(b.m); f != 1 {
		t.Fatalf("decode fraction = %.2f without loss", f)
	}
	if len(b.m.LostRecovered) != 0 {
		t.Errorf("phantom recoveries: %v", b.m.LostRecovered)
	}
}

// decodeFraction is the share of traffic-carrying batches the controller
// could decode (1 when none carried traffic).
func decodeFraction(m *MeterPair) float64 {
	if m.Batches == 0 {
		return 1
	}
	return float64(m.DecodedBatches) / float64(m.Batches)
}
