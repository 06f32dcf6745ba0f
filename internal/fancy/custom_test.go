package fancy

import (
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// udpSized sends a CBR stream of fixed-size packets.
func (tb *testbed) udpSized(entry netsim.EntryID, size, pps int, stop sim.Time) {
	gap := sim.Second / sim.Time(pps)
	var tick func()
	tick = func() {
		if tb.s.Now() >= stop {
			return
		}
		tb.src.Send(&netsim.Packet{
			Entry: entry, Dst: netsim.EntryAddr(entry, 1),
			Src: netsim.IPv4(172, 16, 0, 1), Proto: netsim.ProtoUDP, Size: size,
		})
		tb.s.After(gap, tick)
	}
	tb.s.After(0, tick)
}

// customBed extends the testbed with a size-histogram custom session that
// has a sender but no registered downstream receiver.
func customBed(t *testing.T, seed int64) (*testbed, *SizeHistogramUnit) {
	t.Helper()
	tb := newTestbed(t, testCfg, seed)
	sender := NewSizeHistogramUnit()
	tb.det.MonitorCustom(1, 100*sim.Millisecond, sender)
	return tb, sender
}

func TestSizeHistogramLocalizesSizeSpecificBug(t *testing.T) {
	tb := newTestbed(t, testCfg, 41)
	s, src, link, upDet, downDet := tb.s, tb.src, tb.link, tb.det, tb.downDet

	sender := NewSizeHistogramUnit()
	receiver := NewSizeHistogramUnit()
	upDet.MonitorCustom(1, 100*sim.Millisecond, sender)
	downDet.ListenCustom(0, receiver)

	// Traffic at three distinct packet sizes.
	sizes := []int{200, 800, 1400}
	for i, size := range sizes {
		entry := netsim.EntryID(50 + i)
		sz := size
		gap := 4 * sim.Millisecond
		var tick func()
		tick = func() {
			if s.Now() >= 8*sim.Second {
				return
			}
			src.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
				Proto: netsim.ProtoUDP, Size: sz})
			s.After(gap, tick)
		}
		s.After(sim.Time(i)*sim.Millisecond, tick)
	}

	// The CSCtc33158-style bug: drop packets of 760–900 bytes.
	link.AB.SetFailure(netsim.FailSizes(7, 2*sim.Second, 760, 900, 1.0))
	s.Run(8 * sim.Second)

	if len(sender.FlaggedBuckets) == 0 {
		t.Fatal("size histogram flagged nothing")
	}
	// Exactly the buckets covering ~800+tag bytes must be flagged; the
	// 200 B and 1400 B buckets must stay clean.
	for b := range sender.FlaggedBuckets {
		lo, hi := b*64, b*64+63
		if hi < 760 || lo > 910 {
			t.Errorf("bucket %d (%s) flagged outside the failing size range", b, BucketRange(b))
		}
	}
	if sender.FlaggedBuckets[SizeBucket(200)] {
		t.Error("200 B bucket flagged")
	}
	if sender.FlaggedBuckets[SizeBucket(1400)] {
		t.Error("1400 B bucket flagged")
	}
}

// TestCustomSessionSurvivesRestart: a custom unit is rebuilt by Restart like
// every other unit of the port and keeps flagging its size bucket in the new
// epoch.
func TestCustomSessionSurvivesRestart(t *testing.T) {
	tb := newTestbed(t, testCfg, 45)
	sender, receiver := NewSizeHistogramUnit(), NewSizeHistogramUnit()
	tb.det.MonitorCustom(1, 100*sim.Millisecond, sender)
	tb.downDet.ListenCustom(0, receiver)
	tb.udpSized(60, 300, 200, 6*sim.Second)
	tb.udpSized(61, 1000, 200, 6*sim.Second)
	tb.link.AB.SetFailure(netsim.FailSizes(7, 0, 900, 1100, 1.0))
	bad := SizeBucket(1000)
	tb.s.Run(2 * sim.Second)
	if !sender.FlaggedBuckets[bad] {
		t.Fatalf("bucket %s not flagged before the restart: %v", BucketRange(bad), sender.FlaggedBuckets)
	}
	before := tb.det.monitors[1].custom
	tb.det.Restart()
	if c := tb.det.monitors[1].custom; c == nil || c == before || c.dead || c.unit != customUnitBase {
		t.Fatal("Restart did not rebuild the custom unit")
	}
	sender.FlaggedBuckets = map[int]bool{}
	tb.s.Run(6 * sim.Second)
	if len(sender.FlaggedBuckets) != 1 || !sender.FlaggedBuckets[bad] {
		t.Fatalf("flagged buckets after restart = %v, want only %s", sender.FlaggedBuckets, BucketRange(bad))
	}
}

func TestCustomSessionRequiresMonitorPort(t *testing.T) {
	s := sim.New(42)
	sw := netsim.NewSwitch(s, "sw", 2)
	det, err := NewDetector(s, sw, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MonitorCustom before MonitorPort should panic")
		}
	}()
	det.MonitorCustom(1, sim.Second, NewSizeHistogramUnit())
}

func TestOneCustomUnitPerPort(t *testing.T) {
	tb := newTestbed(t, testCfg, 43)
	tb.det.MonitorCustom(1, sim.Second, NewSizeHistogramUnit())
	defer func() {
		if recover() == nil {
			t.Error("second custom unit on one port should panic")
		}
	}()
	tb.det.MonitorCustom(1, sim.Second, NewSizeHistogramUnit())
}

func TestCustomSessionNoFalsePositives(t *testing.T) {
	tb, sender := customBed(t, 44)
	tb.udpSized(60, 500, 200, 4*sim.Second)
	tb.udpSized(61, 1200, 200, 4*sim.Second)
	tb.s.Run(4 * sim.Second)
	// Without a registered downstream receiver the sessions never close
	// (no reports), so nothing can be flagged; more importantly nothing
	// crashes and regular monitoring is intact.
	if len(sender.FlaggedBuckets) != 0 {
		t.Errorf("flagged buckets without loss: %v", sender.FlaggedBuckets)
	}
}

func TestSizeBucketHelpers(t *testing.T) {
	if SizeBucket(0) != 0 || SizeBucket(63) != 0 || SizeBucket(64) != 1 {
		t.Error("bucket boundaries wrong")
	}
	if SizeBucket(100_000) != SizeBuckets-1 {
		t.Error("oversize packets must land in the overflow bucket")
	}
	if BucketRange(0) != "0-63B" {
		t.Errorf("BucketRange(0) = %q", BucketRange(0))
	}
	if BucketRange(SizeBuckets-1) == "" {
		t.Error("overflow bucket needs a label")
	}
}
