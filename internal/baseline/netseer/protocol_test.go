package netseer

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// protoBed wires the protocol onto a two-switch link.
type protoBed struct {
	*netsim.LinkBed
	p *Protocol
}

func newProtoBed(t *testing.T, bufferPackets int, delay sim.Time) *protoBed {
	t.Helper()
	lc := netsim.LinkConfig{Delay: delay, RateBps: 10e9}
	b := &protoBed{LinkBed: netsim.NewLinkBed(sim.New(1), lc, lc, false)}
	b.p = NewProtocol(b.Sim, bufferPackets, delay)
	b.AttachProbe(b.p)
	return b
}

func (b *protoBed) cbr(entry netsim.EntryID, pps int, stop sim.Time) {
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

func TestProtocolAttributesAtDataCenterBDP(t *testing.T) {
	// 100 µs latency, 2000 pps → ≈0.4 packets per RTT: a 1000-packet
	// buffer easily outlives the NACKs, so every loss is attributed.
	b := newProtoBed(t, 1000, 100*sim.Microsecond)
	b.cbr(7, 2000, 2*sim.Second)
	b.Link.AB.SetFailure(netsim.FailEntries(3, sim.Second, 0.1, 7))
	b.Sim.Run(3 * sim.Second)

	if b.p.Attributed == 0 {
		t.Fatal("no losses attributed")
	}
	if f := attributedFraction(b.p); f < 0.99 {
		t.Fatalf("attributed fraction = %.2f at DC latency, want ≈1", f)
	}
	if b.p.LossByEntry[7] == 0 {
		t.Error("losses not localized to the failing entry")
	}
}

func TestProtocolNotOperationalAtISPBDP(t *testing.T) {
	// 10 ms latency, 2000 pps → 40 packets per RTT, but the buffer holds
	// only 8: signatures are overwritten long before NACKs arrive — the
	// Figure 2 regime ("NetSeer is not operational").
	b := newProtoBed(t, 8, 10*sim.Millisecond)
	b.cbr(7, 2000, 2*sim.Second)
	b.Link.AB.SetFailure(netsim.FailEntries(3, sim.Second, 0.1, 7))
	b.Sim.Run(3 * sim.Second)

	if b.p.Unattributable == 0 {
		t.Fatal("no unattributable losses despite a wrapped buffer")
	}
	if f := attributedFraction(b.p); f >= 0.5 {
		t.Fatalf("attributed fraction = %.2f with buffer ≪ BDP, want ≈0", f)
	}
}

func TestProtocolNoLossNoNACKs(t *testing.T) {
	b := newProtoBed(t, 1000, sim.Millisecond)
	b.cbr(7, 1000, sim.Second)
	b.Sim.Run(2 * sim.Second)
	if b.p.Attributed != 0 || b.p.Unattributable != 0 {
		t.Fatalf("NACKs on a lossless link: %d/%d", b.p.Attributed, b.p.Unattributable)
	}
}

func TestProtocolMatchesAnalyticalThreshold(t *testing.T) {
	// The executable protocol and the Figure 2 formula must agree on the
	// operational boundary: buffer ≥ pps×2×latency ⇒ operational.
	const pps = 4000
	latency := 5 * sim.Millisecond
	needed := int(float64(pps) * 2 * latency.Seconds()) // 40 packets

	for _, c := range []struct {
		buffer int
		wantOK bool
	}{
		{needed * 4, true},
		{needed / 4, false},
	} {
		b := newProtoBed(t, c.buffer, latency)
		b.cbr(7, pps, 2*sim.Second)
		b.Link.AB.SetFailure(netsim.FailEntries(3, sim.Second, 0.05, 7))
		b.Sim.Run(3 * sim.Second)
		if f := attributedFraction(b.p); (f >= 0.9) != c.wantOK {
			t.Errorf("buffer=%d (needed≈%d): attributed %.2f, want operational (≥ 0.9) = %v",
				c.buffer, needed, f, c.wantOK)
		}
	}
}

// attributedFraction is the share of NACKed losses still buffered when
// their NACK arrived (1 when there were none); NetSeer is operational at a
// loss rate when this stays near 1.
func attributedFraction(p *Protocol) float64 {
	total := p.Attributed + p.Unattributable
	if total == 0 {
		return 1
	}
	return float64(p.Attributed) / float64(total)
}
