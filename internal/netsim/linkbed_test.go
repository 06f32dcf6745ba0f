package netsim

import (
	"testing"

	"fancy/internal/sim"
)

var bedCfg = LinkConfig{Delay: sim.Millisecond, RateBps: 10e9}

func TestLinkBedForwardsBothWays(t *testing.T) {
	b := NewLinkBed(sim.New(1), bedCfg, bedCfg, false)
	if b.Backup != nil || b.Up.NumPorts() != 2 || b.Down.NumPorts() != 2 {
		t.Fatalf("a bed without backup has Backup %v and %d/%d ports", b.Backup, b.Up.NumPorts(), b.Down.NumPorts())
	}
	var atDst, atSrc int
	b.Dst.Default = PacketHandlerFunc(func(*Packet) { atDst++ })
	b.Src.Default = PacketHandlerFunc(func(*Packet) { atSrc++ })

	b.Src.Send(&Packet{Entry: 7, Dst: EntryAddr(7, 1), Proto: ProtoUDP, Size: 100})
	b.Sim.Run(0)
	if atDst != 1 || atSrc != 0 {
		t.Fatalf("a packet from Src reached Dst %d times and Src %d times", atDst, atSrc)
	}
	if got := b.Sim.Now(); got <= 3*sim.Millisecond {
		t.Errorf("delivered at %v, want after three 1 ms hops", got)
	}

	// The reply to the hosts' source prefix goes back over port 0.
	b.Dst.Send(&Packet{Dst: IPv4(172, 16, 0, 1), Proto: ProtoUDP, Size: 100})
	b.Sim.Run(0)
	if atDst != 1 || atSrc != 1 {
		t.Fatalf("a reply to 172.16/16 reached Src %d times and Dst %d times", atSrc, atDst-1)
	}
	if b.Up.NoRoute+b.Down.NoRoute != 0 {
		t.Error("a switch had no route")
	}
}

func TestLinkBedBackupDiverts(t *testing.T) {
	b := NewLinkBed(sim.New(1), bedCfg, bedCfg, true)
	if b.Backup == nil || b.Up.Port(2) != b.Backup.AB || b.Down.Port(2) != b.Backup.BA {
		t.Fatal("the backup link is not on port 2 of both switches")
	}
	atDst := 0
	b.Dst.Default = PacketHandlerFunc(func(*Packet) { atDst++ })
	var outPorts []int
	b.Up.OnForwarded(func(_ *Packet, _, out int) { outPorts = append(outPorts, out) })
	route := b.Up.Routes.InsertEntry(7, Route{Port: 1, Backup: 2})
	// Whatever crosses the primary is lost, so only the detour delivers.
	b.Link.AB.SetFailure(FailEntries(1, 0, 1.0, 7))

	send := func() {
		b.Src.Send(&Packet{Entry: 7, Dst: EntryAddr(7, 1), Proto: ProtoUDP, Size: 100})
		b.Sim.Run(0)
	}
	send()
	route.UseBackup = true
	send()
	if len(outPorts) != 2 || outPorts[0] != 1 || outPorts[1] != 2 {
		t.Fatalf("Up forwarded over ports %v, want [1 2]", outPorts)
	}
	if atDst != 1 {
		t.Fatalf("%d packets reached Dst, want only the diverted one", atDst)
	}
}

// probeHook counts what a two-sided loss meter sees.
type probeHook struct{ egress, ingress []int }

func (p *probeHook) OnEgress(_ *Packet, port int) { p.egress = append(p.egress, port) }
func (p *probeHook) OnIngress(_ *Packet, port int) bool {
	p.ingress = append(p.ingress, port)
	return false
}

func TestLinkBedAttachProbe(t *testing.T) {
	b := NewLinkBed(sim.New(1), bedCfg, bedCfg, false)
	var p probeHook
	b.AttachProbe(&p)
	b.Src.Send(&Packet{Entry: 7, Dst: EntryAddr(7, 1), Proto: ProtoUDP, Size: 100})
	b.Sim.Run(0)
	if len(p.egress) != 1 || p.egress[0] != 1 || len(p.ingress) != 1 || p.ingress[0] != 0 {
		t.Fatalf("probe saw egress ports %v and ingress ports %v, want [1] and [0]", p.egress, p.ingress)
	}
}
