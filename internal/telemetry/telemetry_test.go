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
	b.det.OnEvent = b.srv.AttachEvents(nil)
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

func TestSubscribeOnChange(t *testing.T) {
	b := newBed(t)
	var got []Update
	cancel := b.srv.Subscribe("/fancy/ports/1/events/", func(u Update) { got = append(got, u) })

	b.traffic(10, 4*sim.Second)
	b.link.AB.SetFailure(netsim.FailEntries(3, sim.Second, 1.0, 10))
	b.s.Run(4 * sim.Second)

	if len(got) == 0 {
		t.Fatal("no updates delivered")
	}
	first := got[0]
	if !strings.HasPrefix(first.Path, "/fancy/ports/1/events/dedicated/10") {
		t.Errorf("first update path = %q", first.Path)
	}
	if first.Time < sim.Second {
		t.Errorf("update before the failure: %v", first.Time)
	}
	// Flag readable through Get after the event.
	if v, _ := b.srv.Get("/fancy/ports/1/flags/dedicated/0"); v != true {
		t.Error("flag not visible through Get after detection")
	}

	// After cancel, no more deliveries.
	n := len(got)
	cancel()
	b.traffic(11, b.s.Now()+2*sim.Second)
	b.s.Run(b.s.Now() + 2*sim.Second)
	if len(got) != n {
		t.Errorf("updates after cancel: %d → %d", n, len(got))
	}
}

func TestSubscribePrefixFiltering(t *testing.T) {
	b := newBed(t)
	var uniform, dedicated int
	b.srv.Subscribe("/fancy/ports/1/events/uniform", func(Update) { uniform++ })
	b.srv.Subscribe("/fancy/ports/1/events/dedicated/", func(Update) { dedicated++ })

	b.traffic(10, 4*sim.Second)
	b.link.AB.SetFailure(netsim.FailEntries(3, sim.Second, 1.0, 10))
	b.s.Run(4 * sim.Second)

	if dedicated == 0 {
		t.Error("dedicated subscription got nothing")
	}
	if uniform != 0 {
		t.Errorf("uniform subscription got %d updates for a per-entry failure", uniform)
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

func TestPublishAllEventKinds(t *testing.T) {
	b := newBed(t)
	var paths []string
	b.srv.Subscribe("/fancy/ports/1/events/", func(u Update) { paths = append(paths, u.Path) })

	// Chain a downstream consumer through AttachEvents.
	chained := 0
	b.det.OnEvent = b.srv.AttachEvents(func(fancy.Event) { chained++ })

	for _, ev := range []fancy.Event{
		{Port: 1, Kind: fancy.EventDedicated, Entry: 10, Diff: 3},
		{Port: 1, Kind: fancy.EventTreeZoomStart},
		{Port: 1, Kind: fancy.EventTreeLeaf, Path: []uint16{1, 2, 3}, Diff: 5},
		{Port: 1, Kind: fancy.EventUniform},
		{Port: 1, Kind: fancy.EventLinkDown},
		{Port: 1, Kind: fancy.EventKind(200)}, // unknown kind: no update
	} {
		b.det.OnEvent(ev)
	}
	want := []string{
		"/fancy/ports/1/events/dedicated/10",
		"/fancy/ports/1/events/zooming",
		"/fancy/ports/1/events/tree-leaf",
		"/fancy/ports/1/events/uniform",
		"/fancy/ports/1/events/link-down",
	}
	if len(paths) != len(want) {
		t.Fatalf("published %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("path[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
	if chained != 6 {
		t.Errorf("chained handler saw %d events, want all 6", chained)
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

func TestSubscribeAcrossRestart(t *testing.T) {
	// A Restart bumps the detector epoch and wipes protocol state. The
	// subscription must survive it, and no update sourced from a stale-epoch
	// session (e.g. an in-flight pre-restart Report) may be delivered: the
	// only post-restart updates come from fresh new-epoch sessions.
	b := newBed(t)
	var got []Update
	b.srv.Subscribe("/fancy/ports/1/events/", func(u Update) { got = append(got, u) })

	const restartAt = 2 * sim.Second
	b.traffic(10, 5*sim.Second)
	b.link.AB.SetFailure(netsim.FailEntries(3, 500*sim.Millisecond, 1.0, 10))
	b.s.Run(restartAt)
	pre := len(got)
	if pre == 0 {
		t.Fatal("no updates before the restart")
	}

	b.det.Restart()
	if v, _ := b.srv.Get("/fancy/stats/epoch"); v != 2 {
		t.Errorf("epoch = %v after restart, want 2", v)
	}
	if v, _ := b.srv.Get("/fancy/stats/restarts"); v != 1 {
		t.Errorf("restarts = %v, want 1", v)
	}
	if v, _ := b.srv.Get("/fancy/ports/1/flags/dedicated/0"); v != false {
		t.Error("flag survived the restart")
	}

	// Within two link delays of the restart the only control messages that
	// can arrive are in-flight pre-restart (stale-epoch) ones; they must be
	// discarded, so no update may be delivered.
	b.s.Run(restartAt + 20*sim.Millisecond)
	if len(got) != pre {
		t.Fatalf("%d update(s) from stale-epoch sessions right after restart: %v",
			len(got)-pre, got[pre:])
	}

	// The failure persists, so fresh new-epoch sessions re-detect it and the
	// subscription keeps delivering.
	b.s.Run(5 * sim.Second)
	if len(got) == pre {
		t.Fatal("subscription delivered nothing after the restart")
	}
	for _, u := range got[pre:] {
		if u.Time < restartAt {
			t.Errorf("post-restart update timestamped %v, before the restart", u.Time)
		}
	}
	if v, _ := b.srv.Get("/fancy/ports/1/flags/dedicated/0"); v != true {
		t.Error("entry not re-flagged by post-restart sessions")
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

func TestRegisterStatAndHHPaths(t *testing.T) {
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

	// Component-owned counters mount under /fancy/stats/<name>.
	n := 7
	if err := b.srv.RegisterStat("hh-flaps-suppressed", func() int { return n }); err != nil {
		t.Fatal(err)
	}
	if v, err := b.srv.Get("/fancy/stats/hh-flaps-suppressed"); err != nil || v != 7 {
		t.Fatalf("registered stat = %v, %v", v, err)
	}
	n = 9
	if v, _ := b.srv.Get("/fancy/stats/hh-flaps-suppressed"); v != 9 {
		t.Errorf("registered stat is not read live: %v", v)
	}
	// Re-registration replaces the reader; shadowing a built-in is refused.
	if err := b.srv.RegisterStat("hh-flaps-suppressed", func() int { return 1 }); err != nil {
		t.Errorf("re-registration refused: %v", err)
	}
	if err := b.srv.RegisterStat("epoch", func() int { return 0 }); err == nil {
		t.Error("shadowing a built-in stat was accepted")
	}
	if err := b.srv.RegisterStat("a/b", func() int { return 0 }); err == nil {
		t.Error("stat name with a slash was accepted")
	}
	// Registered stats appear in discovery, sorted.
	var found bool
	for _, p := range b.srv.Paths() {
		if p == "/fancy/stats/hh-flaps-suppressed" {
			found = true
		}
	}
	if !found {
		t.Error("registered stat missing from Paths()")
	}
}
