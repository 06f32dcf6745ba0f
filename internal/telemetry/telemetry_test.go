package telemetry

import (
	"strings"
	"testing"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// bed builds the canonical monitored link with a telemetry server on the
// upstream detector.
type bed struct {
	s    *sim.Sim
	src  *netsim.Host
	link *netsim.Link
	det  *fancy.Detector
	srv  *Server
}

func newBed(t *testing.T) *bed {
	t.Helper()
	b, err := buildBed()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildBed is the harness constructor proper, shared with FuzzGetPath
// (fuzzing hands out *testing.F, not *testing.T).
func buildBed() (*bed, error) {
	lc := netsim.LinkConfig{Delay: 10 * sim.Millisecond, RateBps: 10e9}
	lb := netsim.NewLinkBed(sim.New(1), lc, lc, false)
	pair, err := fancy.DeployLink(lb, fancy.Config{
		HighPriority: []netsim.EntryID{10, 11},
		Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
	})
	if err != nil {
		return nil, err
	}
	b := &bed{s: lb.Sim, src: lb.Src, link: lb.Link, det: pair.Upstream}
	b.srv = NewServer(b.s, b.det, 1)
	return b, nil
}

func (b *bed) traffic(entry netsim.EntryID, stop sim.Time) {
	var tick func()
	tick = func() {
		if b.s.Now() >= stop {
			return
		}
		b.src.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
			Proto: netsim.ProtoUDP, Size: 1000})
		b.s.Schedule(4*sim.Millisecond, tick)
	}
	b.s.Schedule(0, tick)
}

func TestGetPaths(t *testing.T) {
	b := newBed(t)
	b.traffic(10, 2*sim.Second)
	b.s.Run(2 * sim.Second)

	if v, err := b.srv.Get("/fancy/ports/1/flags/count"); err != nil || v != 0 {
		t.Errorf("flags/count = %v, %v; want 0", v, err)
	}
	if v, err := b.srv.Get("/fancy/ports/1/flags/dedicated/0"); err != nil || v != false {
		t.Errorf("dedicated/0 = %v, %v; want false", v, err)
	}
	if v, err := b.srv.Get("/fancy/ports/1/sessions/completed"); err != nil || v.(int) == 0 {
		t.Errorf("sessions = %v, %v; want > 0", v, err)
	}
	if v, err := b.srv.Get("/fancy/control/messages"); err != nil || v.(int) == 0 {
		t.Errorf("control/messages = %v, %v", v, err)
	}
	if v, err := b.srv.Get("/fancy/layout"); err != nil || !strings.Contains(v.(string), "dedicated=2") {
		t.Errorf("layout = %v, %v", v, err)
	}
}

func TestGetErrors(t *testing.T) {
	b := newBed(t)
	bad := []string{
		"/nope", "/fancy/bogus", "/fancy/ports/9/flags/count",
		"/fancy/ports/1/flags/dedicated/99", "/fancy/ports/x/flags/count",
		"/fancy/control/quux", "/fancy/ports/1/unknown",
	}
	for _, p := range bad {
		if _, err := b.srv.Get(p); err == nil {
			t.Errorf("Get(%q) succeeded", p)
		}
	}
}

func TestSampleMode(t *testing.T) {
	b := newBed(t)
	var samples []Update
	cancel, err := b.srv.Sample("/fancy/ports/1/sessions/completed", 100*sim.Millisecond,
		func(u Update) { samples = append(samples, u) })
	if err != nil {
		t.Fatal(err)
	}
	b.traffic(10, 1*sim.Second)
	b.s.Run(1 * sim.Second)
	if len(samples) < 8 || len(samples) > 11 {
		t.Fatalf("got %d samples in 1s at 100ms, want ≈10", len(samples))
	}
	// Monotone non-decreasing session counts.
	for i := 1; i < len(samples); i++ {
		if samples[i].Value.(int) < samples[i-1].Value.(int) {
			t.Fatal("session counter went backwards")
		}
	}
	cancel()
	n := len(samples)
	b.s.Run(b.s.Now() + 500*sim.Millisecond)
	if len(samples) != n {
		t.Error("samples delivered after cancel")
	}
}

func TestSampleInvalidPath(t *testing.T) {
	b := newBed(t)
	if _, err := b.srv.Sample("/fancy/bogus", sim.Second, func(Update) {}); err == nil {
		t.Fatal("invalid sample path accepted")
	}
}

func TestPathsDiscovery(t *testing.T) {
	b := newBed(t)
	paths := b.srv.Paths()
	if len(paths) < 5 {
		t.Fatalf("Paths() = %v", paths)
	}
	for _, p := range paths {
		if _, err := b.srv.Get(p); err != nil {
			t.Errorf("discovered path %q not Get-able: %v", p, err)
		}
	}
}

func TestStatsPaths(t *testing.T) {
	b := newBed(t)
	for _, p := range StatsPaths() {
		v, err := b.srv.Get(p)
		if err != nil {
			t.Fatalf("Get(%q): %v", p, err)
		}
		want := 0
		if p == "/fancy/stats/epoch" {
			want = 1 // a fresh detector is epoch 1 (zero is reserved)
		}
		if v != want {
			t.Errorf("Get(%q) = %v, want %d on a fresh detector", p, v, want)
		}
	}
	for _, p := range []string{"/fancy/stats", "/fancy/stats/bogus", "/fancy/stats/epoch/extra"} {
		if _, err := b.srv.Get(p); err == nil {
			t.Errorf("Get(%q) succeeded", p)
		}
	}

	// A total blackhole drives retransmissions and a link-down report, all
	// visible through the stats paths.
	b.link.AB.SetFailure(netsim.FailUniform(3, 0, 1.0))
	b.traffic(10, 2*sim.Second)
	b.s.Run(2 * sim.Second)
	if v, _ := b.srv.Get("/fancy/stats/retransmits"); v.(int) == 0 {
		t.Error("retransmits = 0 after a blackhole")
	}
	if v, _ := b.srv.Get("/fancy/stats/link-down-events"); v.(int) == 0 {
		t.Error("link-down-events = 0 after a blackhole")
	}
}

func TestLinkDownPath(t *testing.T) {
	b := newBed(t)
	if v, err := b.srv.Get("/fancy/ports/1/link/down"); err != nil || v != false {
		t.Errorf("link/down = %v, %v; want false", v, err)
	}
	// Kill everything including control: link-down must show through Get.
	b.link.AB.SetFailure(netsim.FailUniform(3, 0, 1.0))
	b.traffic(10, 2*sim.Second)
	b.s.Run(2 * sim.Second)
	if v, _ := b.srv.Get("/fancy/ports/1/link/down"); v != true {
		t.Error("link/down = false after a total blackhole")
	}
}

func TestHHPaths(t *testing.T) {
	b := newBed(t)
	// Built-in HH stats paths read zero on a detector without the stage.
	for _, p := range []string{"/fancy/stats/hh-reports", "/fancy/stats/promotions",
		"/fancy/stats/demotions"} {
		if v, err := b.srv.Get(p); err != nil || v != 0 {
			t.Errorf("Get(%q) = %v, %v; want 0", p, v, err)
		}
	}
	if v, err := b.srv.Get("/fancy/ports/1/hh/occupied"); err != nil || v != 0 {
		t.Errorf("hh/occupied = %v, %v", v, err)
	}
	if v, err := b.srv.Get("/fancy/ports/1/hh/capacity"); err != nil || v != 0 {
		t.Errorf("hh/capacity = %v, %v", v, err)
	}
}
