package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fancy/internal/fancy"
	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// line builds H1 — A — B — C — H2.
func lineSpec() Spec {
	return Spec{
		Switches: []string{"A", "B", "C"},
		Links: []LinkSpec{
			{A: "A", B: "B", Delay: 5 * sim.Millisecond},
			{A: "B", B: "C", Delay: 5 * sim.Millisecond},
		},
		Hosts: []HostSpec{
			{Name: "H1", Attach: "A"},
			{Name: "H2", Attach: "C"},
		},
	}
}

func deployCfg() fancy.Config {
	return fancy.Config{
		HighPriority: []netsim.EntryID{10},
		Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
		TreeSeed:     3,
	}
}

func udp(n *Network, from string, entry netsim.EntryID, rateBps float64, stop sim.Time) {
	host := n.Hosts[from]
	const size = 1000
	gap := sim.Time(float64(size*8) / rateBps * float64(sim.Second))
	var tick func()
	tick = func() {
		if n.Sim.Now() >= stop {
			return
		}
		host.Send(&netsim.Packet{Entry: entry, Dst: netsim.EntryAddr(entry, 1),
			Src: n.HostAddr(from), Proto: netsim.ProtoUDP, Size: size})
		n.Sim.Schedule(gap, tick)
	}
	n.Sim.Schedule(0, tick)
}

func TestBuildErrors(t *testing.T) {
	s := sim.New(1)
	if _, err := Build(s, Spec{Switches: []string{"A", "A"}}); err == nil {
		t.Error("duplicate switch accepted")
	}
	if _, err := Build(s, Spec{Switches: []string{"A"},
		Links: []LinkSpec{{A: "A", B: "ZZ"}}}); err == nil {
		t.Error("link to unknown switch accepted")
	}
	if _, err := Build(s, Spec{Switches: []string{"A"},
		Hosts: []HostSpec{{Name: "H", Attach: "ZZ"}}}); err == nil {
		t.Error("host on unknown switch accepted")
	}
	// A negative delay or rate is an error here, not a panic in Connect.
	for want, l := range map[string]LinkSpec{
		"negative delay -1ns": {A: "A", B: "B", Delay: -1},
		"negative rate -1":    {A: "A", B: "B", RateBps: -1},
	} {
		if _, err := Build(s, Spec{Switches: []string{"A", "B"}, Links: []LinkSpec{l}}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("link %+v: error %v, want one containing %q", l, err, want)
		}
	}
}

func TestShortestPathForwarding(t *testing.T) {
	s := sim.New(1)
	n, err := Build(s, lineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{10: "H2"}); err != nil {
		t.Fatal(err)
	}
	got := 0
	n.Hosts["H2"].Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) { got++ })
	udp(n, "H1", 10, 1e6, 100*sim.Millisecond)
	s.Run(sim.Second)
	if got == 0 {
		t.Fatal("no packets delivered across the line topology")
	}
	// Reverse reachability: H2 → H1 by address.
	back := 0
	n.Hosts["H1"].Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) { back++ })
	n.Hosts["H2"].Send(&netsim.Packet{Dst: n.HostAddr("H1"), Proto: netsim.ProtoUDP, Size: 100})
	s.Run(2 * sim.Second)
	if back != 1 {
		t.Fatalf("reverse delivery = %d, want 1", back)
	}
}

// TestInstallShortestPathsRejectsUnknownOwner: an entry owned by no host of
// the topology would be black-holed, so installation fails and names the
// lowest such entry whatever the map order.
func TestInstallShortestPathsRejectsUnknownOwner(t *testing.T) {
	n, err := Build(sim.New(1), lineSpec())
	if err != nil {
		t.Fatal(err)
	}
	owners := map[netsim.EntryID]string{10: "H2", 3: "H1", 40: "ghost", 7: "H3", 12: "ghost"}
	want := `topo: entry 7 is owned by unknown host "H3"`
	for i := 0; i < 20; i++ {
		if err := n.InstallShortestPaths(owners); err == nil || err.Error() != want {
			t.Fatalf("InstallShortestPaths = %v, want %s", err, want)
		}
	}
	for sw, s := range n.Switches {
		if s.Routes.Len() != 0 {
			t.Fatalf("switch %s got %d routes from a rejected installation", sw, s.Routes.Len())
		}
	}
}

func TestShortestPathPicksLowDelay(t *testing.T) {
	// Square with a fast diagonal: A—B slow (50ms), A—C—B fast (2×5ms).
	s := sim.New(1)
	n, err := Build(s, Spec{
		Switches: []string{"A", "B", "C"},
		Links: []LinkSpec{
			{A: "A", B: "B", Delay: 50 * sim.Millisecond},
			{A: "A", B: "C", Delay: 5 * sim.Millisecond},
			{A: "C", B: "B", Delay: 5 * sim.Millisecond},
		},
		Hosts: []HostSpec{{Name: "H1", Attach: "A"}, {Name: "H2", Attach: "B"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{10: "H2"}); err != nil {
		t.Fatal(err)
	}
	// Traffic through the fast path crosses C.
	var viaC int
	n.Switches["C"].OnForwarded(func(*netsim.Packet, int, int) { viaC++ })
	udp(n, "H1", 10, 1e6, 100*sim.Millisecond)
	s.Run(sim.Second)
	if viaC == 0 {
		t.Fatal("shortest path did not route via the fast two-hop path")
	}
}

func TestFullDeploymentLocalizesFailure(t *testing.T) {
	// FANcY at every switch: a failure on B→C must be flagged by B on its
	// port toward C — and nowhere else. This is the paper's localization
	// claim ("identifying both the switch port suffering from a gray
	// failure and the affected traffic").
	s := sim.New(2)
	n, err := Build(s, lineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{10: "H2", 500: "H2"}); err != nil {
		t.Fatal(err)
	}
	dep, err := n.DeployFancy(deployCfg())
	if err != nil {
		t.Fatal(err)
	}

	udp(n, "H1", 10, 2e6, 8*sim.Second)
	n.Direction("B", "C").SetFailure(netsim.FailEntries(7, 2*sim.Second, 1.0, 10))
	s.Run(8 * sim.Second)

	flagged := n.FlaggedAt(dep, 10)
	if len(flagged) != 1 || flagged[0] != "B->C" {
		t.Fatalf("flagged at %v, want exactly [B->C]", flagged)
	}
	// The A→B hop saw the same traffic but no loss: it must stay silent.
	for _, de := range dep.Events {
		if de.Event.Kind == fancy.EventDedicated && de.Switch != "B" {
			t.Errorf("switch %s raised %v; only B should detect", de.Switch, de.Event)
		}
	}
}

func TestFullDeploymentReverseDirection(t *testing.T) {
	// Sessions run in both directions: a failure on C→B (the reverse
	// path) is flagged by C.
	s := sim.New(3)
	n, err := Build(s, lineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{20: "H1"}); err != nil {
		t.Fatal(err)
	}
	dep, err := n.DeployFancy(fancy.Config{
		HighPriority: []netsim.EntryID{20},
		Tree:         tree.Params{Width: 32, Depth: 3, Split: 2, Pipelined: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	udp(n, "H2", 20, 2e6, 8*sim.Second) // H2 → H1 crosses C→B→A
	n.Direction("C", "B").SetFailure(netsim.FailEntries(9, 2*sim.Second, 1.0, 20))
	s.Run(8 * sim.Second)

	flagged := n.FlaggedAt(dep, 20)
	if len(flagged) != 1 || flagged[0] != "C->B" {
		t.Fatalf("flagged at %v, want exactly [C->B]", flagged)
	}
}

func TestFullDeploymentTreeEntryLocalized(t *testing.T) {
	s := sim.New(4)
	n, err := Build(s, lineSpec())
	if err != nil {
		t.Fatal(err)
	}
	const entry = netsim.EntryID(777) // best effort
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "H2"}); err != nil {
		t.Fatal(err)
	}
	dep, err := n.DeployFancy(deployCfg())
	if err != nil {
		t.Fatal(err)
	}
	udp(n, "H1", entry, 2e6, 10*sim.Second)
	n.Direction("A", "B").SetFailure(netsim.FailEntries(11, 2*sim.Second, 1.0, entry))
	s.Run(10 * sim.Second)

	flagged := n.FlaggedAt(dep, entry)
	if len(flagged) != 1 || flagged[0] != "A->B" {
		t.Fatalf("flagged at %v, want exactly [A->B]", flagged)
	}
}

func TestDeploymentSessionsOnAllLinks(t *testing.T) {
	s := sim.New(5)
	n, err := Build(s, lineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(nil); err != nil {
		t.Fatal(err)
	}
	dep, err := n.DeployFancy(deployCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * sim.Second)
	// Every monitored direction must be cycling sessions even without
	// traffic (control messages keep flowing).
	checks := [][2]string{{"A", "B"}, {"B", "A"}, {"B", "C"}, {"C", "B"}}
	for _, c := range checks {
		det := dep.Detectors[c[0]]
		port := n.PortOf[c[0]][c[1]]
		if det.SessionsCompleted(port) == 0 {
			t.Errorf("no sessions on %s→%s", c[0], c[1])
		}
	}
}

func TestLinkAccessors(t *testing.T) {
	s := sim.New(1)
	n, err := Build(s, lineSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][2]string{{"A", "B"}, {"B", "A"}} {
		if d, ok := n.LinkDelay(order[0], order[1]); !ok || d != 5*sim.Millisecond {
			t.Errorf("LinkDelay(%s,%s) = %v, %v; want 5ms", order[0], order[1], d, ok)
		}
		if c, ok := n.linkConfig(order[0], order[1]); !ok || c.RateBps != 100e9 {
			t.Errorf("linkConfig(%s,%s).RateBps = %v, %v; want default 100e9", order[0], order[1], c.RateBps, ok)
		}
	}
	if _, ok := n.LinkDelay("A", "C"); ok {
		t.Error("LinkDelay reported a link that does not exist")
	}
	if got := n.Neighbors("B"); len(got) != 2 || got[0] != "A" || got[1] != "C" {
		t.Errorf("Neighbors(B) = %v, want [A C]", got)
	}
	dls := n.DirectedLinks()
	want := []DirectedLink{{"A", "B"}, {"B", "A"}, {"B", "C"}, {"C", "B"}}
	if len(dls) != len(want) {
		t.Fatalf("DirectedLinks = %v, want %v", dls, want)
	}
	for i := range want {
		if dls[i] != want[i] {
			t.Errorf("DirectedLinks[%d] = %v, want %v", i, dls[i], want[i])
		}
	}
	if d, ok := n.PathDelay("A", "C"); !ok || d != 10*sim.Millisecond {
		t.Errorf("PathDelay(A,C) = %v, %v; want 10ms", d, ok)
	}
}

// TestLoopFreeBackup: the backup next hop is the cheapest neighbor whose
// shortest path to the far end cannot come back through the near end.
func TestLoopFreeBackup(t *testing.T) {
	ms := func(d int) sim.Time { return sim.Time(d) * sim.Millisecond }
	// A—B is the protected link; C and D both offer safe detours, D's the
	// cheaper one; E hangs off A alone, so its way to B is back through A.
	diamond := Spec{
		Switches: []string{"A", "B", "C", "D", "E"},
		Links: []LinkSpec{
			{A: "A", B: "B", Delay: ms(10)},
			{A: "A", B: "C", Delay: ms(1)}, {A: "C", B: "B", Delay: ms(2)},
			{A: "A", B: "D", Delay: ms(1)}, {A: "D", B: "B", Delay: ms(1)},
			{A: "A", B: "E", Delay: ms(1)},
		},
	}
	for _, tc := range []struct {
		name string
		spec Spec
		dl   DirectedLink
		want string // "" = no loop-free backup
	}{
		// atlanta's neighbors besides indianapolis: houston reaches it via
		// kansascity (11 ms < 8+5 back through atlanta) — safe; washington's
		// shortest path (11 ms) is the one back through atlanta — unsafe.
		{"Abilene, one safe neighbor of two", Abilene(), DirectedLink{"atlanta", "indianapolis"}, "houston"},
		{"Abilene, single candidate", Abilene(), DirectedLink{"seattle", "sunnyvale"}, "denver"},
		// houston and indianapolis both reach denver through kansascity.
		{"Abilene, every detour routes back through From", Abilene(), DirectedLink{"kansascity", "denver"}, ""},
		{"cheapest of two safe neighbors", diamond, DirectedLink{"A", "B"}, "D"},
		{"no neighbor besides To", diamond, DirectedLink{"E", "A"}, ""},
		{"not a link", diamond, DirectedLink{"C", "D"}, ""},
	} {
		n, err := Build(sim.New(1), tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := n.LoopFreeBackup(tc.dl)
		if got != tc.want || ok != (tc.want != "") {
			t.Errorf("%s: LoopFreeBackup(%v) = %q, %v; want %q", tc.name, tc.dl, got, ok, tc.want)
		}
	}
}

func TestAbileneRoundTrip(t *testing.T) {
	// Round-trip sanity: an echo between coast hosts must take exactly
	// 2 × (host links + the delay-weighted shortest switch path), which the
	// accessors predict without running a packet.
	spec := Abilene()
	spec.Hosts = []HostSpec{{Name: "h1", Attach: "seattle"}, {Name: "h2", Attach: "newyork"}}
	s := sim.New(11)
	n, err := Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(nil); err != nil {
		t.Fatal(err)
	}
	oneWay, ok := n.PathDelay("seattle", "newyork")
	if !ok {
		t.Fatal("no seattle→newyork path")
	}
	// seattle—denver—kansascity—indianapolis—chicago—newyork = 30 ms.
	if oneWay != 30*sim.Millisecond {
		t.Fatalf("PathDelay(seattle,newyork) = %v, want 30ms", oneWay)
	}

	var sent, rtt sim.Time
	n.Hosts["h2"].Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		n.Hosts["h2"].Send(&netsim.Packet{Dst: n.HostAddr("h1"), Proto: netsim.ProtoUDP, Size: 100})
	})
	n.Hosts["h1"].Default = netsim.PacketHandlerFunc(func(p *netsim.Packet) {
		rtt = s.Now() - sent
	})
	s.Schedule(0, func() {
		sent = s.Now()
		n.Hosts["h1"].Send(&netsim.Packet{Dst: n.HostAddr("h2"), Proto: netsim.ProtoUDP, Size: 100})
	})
	s.Run(sim.Second)

	// Host edge links add 1 ms on each side; serialization at 100 Gbps is
	// nanoseconds, so allow a 1 ms tolerance above the propagation floor.
	wantRTT := 2 * (oneWay + 2*sim.Millisecond)
	if rtt < wantRTT || rtt > wantRTT+sim.Millisecond {
		t.Fatalf("echo RTT = %v, want ≈%v", rtt, wantRTT)
	}
}

func TestAbileneSpec(t *testing.T) {
	spec := Abilene()
	if len(spec.Switches) != 11 || len(spec.Links) != 14 {
		t.Fatalf("Abilene: %d switches, %d links; want 11/14", len(spec.Switches), len(spec.Links))
	}
	spec.Hosts = []HostSpec{{Name: "h1", Attach: "seattle"}, {Name: "h2", Attach: "newyork"}}
	s := sim.New(9)
	n, err := Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{5: "h2"}); err != nil {
		t.Fatal(err)
	}
	// Coast-to-coast delivery works over shortest paths.
	got := 0
	n.Hosts["h2"].Default = netsim.PacketHandlerFunc(func(*netsim.Packet) { got++ })
	udp(n, "h1", 5, 1e6, 100*sim.Millisecond)
	s.Run(sim.Second)
	if got == 0 {
		t.Fatal("no coast-to-coast delivery on Abilene")
	}
	// Full deployment works on the real topology too.
	dep, err := n.DeployFancy(deployCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 2*sim.Second)
	if dep.Detectors["kansascity"].SessionsCompleted(n.PortOf["kansascity"]["denver"]) == 0 {
		t.Error("no sessions on an interior Abilene link")
	}
}

// referencePaths is the Dijkstra that paths replaced, kept as the oracle:
// it re-collects and re-sorts the switch names on every extract-min. The
// installed routes must not depend on which of the two computed them.
func referencePaths(n *Network, dst string) map[string]string {
	const inf = int64(1) << 62
	dist := make(map[string]int64)
	next := make(map[string]string)
	for sw := range n.Switches {
		dist[sw] = inf
	}
	dist[dst] = 0
	visited := make(map[string]bool)
	for {
		var u string
		best := inf
		var names []string
		for sw := range n.Switches {
			names = append(names, sw)
		}
		sort.Strings(names)
		for _, sw := range names {
			if !visited[sw] && dist[sw] < best {
				best = dist[sw]
				u = sw
			}
		}
		if u == "" {
			break
		}
		visited[u] = true
		for _, e := range n.adjacency[u] {
			d := dist[u] + int64(e.delay) + 1
			if d < dist[e.to] {
				dist[e.to] = d
				next[e.to] = u
			}
		}
	}
	return next
}

// gridSpec is a side×side grid with one host per switch. Delays are whole
// milliseconds from a small range, so equal-cost paths — where the name
// tie-break decides — are everywhere.
func gridSpec(side int) Spec {
	name := func(r, c int) string { return fmt.Sprintf("g%02d-%02d", r, c) }
	rng := rand.New(rand.NewSource(12))
	delay := func() sim.Time { return sim.Time(1+rng.Intn(3)) * sim.Millisecond }
	var spec Spec
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			spec.Switches = append(spec.Switches, name(r, c))
			spec.Hosts = append(spec.Hosts, HostSpec{Name: "h" + name(r, c), Attach: name(r, c)})
			if c+1 < side {
				spec.Links = append(spec.Links, LinkSpec{A: name(r, c), B: name(r, c+1), Delay: delay()})
			}
			if r+1 < side {
				spec.Links = append(spec.Links, LinkSpec{A: name(r, c), B: name(r+1, c), Delay: delay()})
			}
		}
	}
	return spec
}

// TestPathsMatchReference holds the next-hop maps of the hoisted, cached
// Dijkstra equal to the reference's for every destination, on Abilene and
// on a 12×12 grid — asked twice, so the cached answer is checked too.
func TestPathsMatchReference(t *testing.T) {
	for name, spec := range map[string]Spec{"abilene": Abilene(), "grid12": gridSpec(12)} {
		n, err := Build(sim.New(1), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, dst := range spec.Switches {
			want := referencePaths(n, dst)
			if len(want) != len(spec.Switches)-1 {
				t.Fatalf("%s: %d switches reach %s, want %d", name, len(want), dst, len(spec.Switches)-1)
			}
			for round := 0; round < 2; round++ {
				if !reflect.DeepEqual(n.paths(dst), want) {
					t.Fatalf("%s round %d: next hops toward %s differ from the reference", name, round, dst)
				}
			}
		}
		if n.paths("no-such-switch") != nil {
			t.Errorf("%s: paths to an unknown switch is not empty", name)
		}
	}
}

// TestRouteInstallPerPrefixDoesNotAllocate: route installation allocates
// per table and per host, not per prefix. Doubling the entries on a 12×12
// grid puts 43 200 more prefixes into its 144 tables and may add at most
// two objects per host (its entry list growing).
func TestRouteInstallPerPrefixDoesNotAllocate(t *testing.T) {
	spec := gridSpec(12)
	install := func(entries int) float64 {
		owners := make(map[netsim.EntryID]string, entries)
		for e := 0; e < entries; e++ {
			owners[netsim.EntryID(e)] = spec.Hosts[e%len(spec.Hosts)].Name
		}
		nets := make([]*Network, 2) // AllocsPerRun adds one warm-up call
		for i := range nets {
			n, err := Build(sim.New(1), spec)
			if err != nil {
				t.Fatal(err)
			}
			nets[i] = n
		}
		next := 0
		return testing.AllocsPerRun(1, func() {
			if err := nets[next].InstallShortestPaths(owners); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small, large := install(300), install(600)
	if extra := large - small; extra > float64(2*len(spec.Hosts)) {
		t.Errorf("installing 300 → 600 entries allocates %.0f → %.0f objects; want at most %d more",
			small, large, 2*len(spec.Hosts))
	}
}
