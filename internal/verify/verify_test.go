package verify

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
)

const entry = netsim.EntryID(10)

// abilene builds the standard test network: Abilene, a source host at
// seattle, the entry's owner host at denver, shortest paths installed.
func abilene(t *testing.T) *topo.Network {
	t.Helper()
	s := sim.New(1)
	spec := topo.Abilene()
	spec.Hosts = []topo.HostSpec{
		{Name: "hsrc", Attach: "seattle"},
		{Name: "hdst", Attach: "denver"},
	}
	n, err := topo.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "hdst"}); err != nil {
		t.Fatal(err)
	}
	return n
}

// grid builds a side×side grid with a host at each corner, entries 1–8
// spread over them, shortest paths installed.
func grid(t *testing.T, side int) *topo.Network {
	t.Helper()
	name := func(r, c int) string { return fmt.Sprintf("g%02d-%02d", r, c) }
	var spec topo.Spec
	for r := range side {
		for c := range side {
			spec.Switches = append(spec.Switches, name(r, c))
			if c+1 < side {
				spec.Links = append(spec.Links, topo.LinkSpec{A: name(r, c), B: name(r, c+1), Delay: sim.Millisecond})
			}
			if r+1 < side {
				spec.Links = append(spec.Links, topo.LinkSpec{A: name(r, c), B: name(r+1, c), Delay: sim.Millisecond})
			}
		}
	}
	corners := []string{name(0, 0), name(0, side-1), name(side-1, 0), name(side-1, side-1)}
	owners := map[netsim.EntryID]string{}
	for i, sw := range corners {
		spec.Hosts = append(spec.Hosts, topo.HostSpec{Name: "h" + sw, Attach: sw})
		owners[netsim.EntryID(1+i)], owners[netsim.EntryID(5+i)] = "h"+sw, "h"+sw
	}
	n, err := topo.Build(sim.New(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(owners); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestModelCleanStateIsSafe(t *testing.T) {
	n := abilene(t)
	m := NewModel(n)
	if m.Atoms() == 0 {
		t.Fatal("no atoms")
	}
	v := m.Audit()
	if !v.Safe() {
		t.Fatalf("shortest-path state not safe: %s", v)
	}
	if v.Atoms != m.Atoms() {
		t.Fatalf("audit walked %d atoms, model has %d", v.Atoms, m.Atoms())
	}
}

// TestComposedFlipsFormLoop reproduces the chaos scenario's core: two
// individually-valid backup flips (seattle→sunnyvale, sunnyvale→seattle)
// compose into a forwarding loop, which the incremental check catches
// before commit; the repair candidate via losangeles is safe.
func TestComposedFlipsFormLoop(t *testing.T) {
	n := abilene(t)
	m := NewModel(n)

	toSun := n.PortOf["seattle"]["sunnyvale"]
	toSea := n.PortOf["sunnyvale"]["seattle"]
	toLA := n.PortOf["sunnyvale"]["losangeles"]

	first := NewDelta("seattle->denver", []Flip{EntryFlip("seattle", entry, toSun)})
	v, err := m.Check(first)
	if err != nil || !v.Safe() {
		t.Fatalf("first flip should be safe: %v %s", err, v)
	}
	if v.Atoms == 0 || v.Atoms >= m.Atoms() {
		t.Fatalf("incremental check walked %d of %d atoms", v.Atoms, m.Atoms())
	}
	if err := m.Commit(first); err != nil {
		t.Fatal(err)
	}

	second := NewDelta("sunnyvale->denver", []Flip{EntryFlip("sunnyvale", entry, toSea)})
	v, err = m.Check(second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Safe() {
		t.Fatal("composed flips should form a loop")
	}
	if v.Loops() == 0 {
		t.Fatalf("expected a loop verdict, got %s", v)
	}
	if !strings.Contains(v.String(), "loop[seattle sunnyvale]") {
		t.Fatalf("loop members wrong: %s", v)
	}
	// The only alternate at sunnyvale loops too: losangeles default-routes
	// to denver through sunnyvale. The triangle has no safe repair — this
	// is the hold-and-retry case, not the alternate-backup case.
	alt := NewDelta("sunnyvale->denver", []Flip{EntryFlip("sunnyvale", entry, toLA)})
	v, err = m.Check(alt)
	if err != nil {
		t.Fatal(err)
	}
	if v.Safe() {
		t.Fatalf("losangeles detour should loop back through sunnyvale: %s", v)
	}
	// Check must not have mutated the model: the committed single-flip
	// state is still safe.
	if a := m.Audit(); !a.Safe() {
		t.Fatalf("audit after checks unsafe (Check mutated the model): %s", a)
	}
}

// TestAlternateRepairIsSafe is the chaos suite's repair scenario: the entry
// lives behind kansascity, atlanta has flipped to houston (safe), and
// houston's configured backup (atlanta) composes into a loop — but the
// alternate via losangeles reaches kansascity through sunnyvale→denver,
// avoiding both flipped switches.
func TestAlternateRepairIsSafe(t *testing.T) {
	s := sim.New(1)
	spec := topo.Abilene()
	spec.Hosts = []topo.HostSpec{
		{Name: "hsrc", Attach: "washington"},
		{Name: "hdst", Attach: "kansascity"},
	}
	n, err := topo.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallShortestPaths(map[netsim.EntryID]string{entry: "hdst"}); err != nil {
		t.Fatal(err)
	}
	m := NewModel(n)

	first := NewDelta("atlanta->indianapolis",
		[]Flip{EntryFlip("atlanta", entry, n.PortOf["atlanta"]["houston"])})
	if v, err := m.Check(first); err != nil || !v.Safe() {
		t.Fatalf("atlanta->houston flip should be safe: %v %s", err, v)
	}
	if err := m.Commit(first); err != nil {
		t.Fatal(err)
	}

	bad := NewDelta("houston->kansascity",
		[]Flip{EntryFlip("houston", entry, n.PortOf["houston"]["atlanta"])})
	v, err := m.Check(bad)
	if err != nil {
		t.Fatal(err)
	}
	if v.Safe() || !strings.Contains(v.String(), "loop[atlanta houston]") {
		t.Fatalf("configured backup should loop atlanta<->houston: %s", v)
	}

	repair := NewDelta("houston->kansascity",
		[]Flip{EntryFlip("houston", entry, n.PortOf["houston"]["losangeles"])})
	v, err = m.Check(repair)
	if err != nil || !v.Safe() {
		t.Fatalf("repair via losangeles should be safe: %v %s", err, v)
	}
	if err := m.Commit(repair); err != nil {
		t.Fatal(err)
	}
	if a := m.Audit(); !a.Safe() {
		t.Fatalf("post-repair audit unsafe: %s", a)
	}
}

func TestBlackholeDetection(t *testing.T) {
	n := abilene(t)
	m := NewModel(n)
	// Port 999 exists on no switch: everything upstream blackholes.
	d := NewDelta("x", []Flip{EntryFlip("denver", entry, 999)})
	v, err := m.Check(d)
	if err != nil {
		t.Fatal(err)
	}
	if v.Safe() || v.Blackholes() == 0 {
		t.Fatalf("expected blackhole verdict, got %s", v)
	}
	// denver is the entry's delivery switch: every ingress drops there.
	if !strings.Contains(v.String(), "hole[") || !strings.Contains(v.String(), "denver") {
		t.Fatalf("hole verdict wrong: %s", v)
	}
}

func TestUninstalledPrefixErrors(t *testing.T) {
	n := abilene(t)
	m := NewModel(n)
	d := NewDelta("x", []Flip{{Switch: "seattle", Addr: 0xc0000000, Plen: 8, Port: 0}})
	if _, err := m.Check(d); err == nil {
		t.Fatal("uninstalled prefix must error")
	}
	d = NewDelta("x", []Flip{EntryFlip("nowhere", entry, 0)})
	if _, err := m.Check(d); err == nil {
		t.Fatal("unknown switch must error")
	}
}

// TestLPMWinnerGating: flipping a /24 must not move traffic owned by a
// longer /32 (the host route) — only atoms whose LPM winner is the flipped
// prefix are touched.
func TestLPMWinnerGating(t *testing.T) {
	n := abilene(t)
	m := NewModel(n)
	hostAddr := n.HostAddr("hdst")
	toSun := n.PortOf["seattle"]["sunnyvale"]
	d := NewDelta("x", []Flip{EntryFlip("seattle", entry, toSun)})
	ov, dirty, err := m.overlay(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("entry flip touched no atoms")
	}
	si := m.swIdx["seattle"]
	for _, k := range dirty {
		if m.atoms[k].lo <= hostAddr && hostAddr <= m.atoms[k].hi {
			t.Fatalf("entry /24 flip touched the host /32 atom [%s-%s]",
				ipStr(m.atoms[k].lo), ipStr(m.atoms[k].hi))
		}
		if _, ok := ov[m.cell(k, si)]; !ok {
			t.Fatal("dirty atom without an override at the flipped switch")
		}
	}
}

// TestIncrementalMatchesOracle is the property test: on randomized reroute
// batches over Abilene, the incremental verdict is byte-identical to the
// brute-force all-pairs path-enumeration oracle, including as the model
// evolves through commits.
func TestIncrementalMatchesOracle(t *testing.T) {
	s := sim.New(7)
	spec := topo.Abilene()
	spec.Hosts = []topo.HostSpec{
		{Name: "h1", Attach: "seattle"},
		{Name: "h2", Attach: "denver"},
		{Name: "h3", Attach: "atlanta"},
	}
	n, err := topo.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[netsim.EntryID]string{}
	hostNames := []string{"h1", "h2", "h3"}
	for e := netsim.EntryID(1); e <= 8; e++ {
		owners[e] = hostNames[int(e)%len(hostNames)]
	}
	if err := n.InstallShortestPaths(owners); err != nil {
		t.Fatal(err)
	}
	m := NewModel(n)
	sws := slices.Clone(m.switches)

	rng := rand.New(rand.NewSource(20220822))
	for trial := 0; trial < 400; trial++ {
		nf := 1 + rng.Intn(4)
		flips := make([]Flip, 0, nf)
		for i := 0; i < nf; i++ {
			sw := sws[rng.Intn(len(sws))]
			var fl Flip
			if rng.Intn(4) == 0 { // host /32
				h := hostNames[rng.Intn(len(hostNames))]
				fl = Flip{Switch: sw, Addr: n.HostAddr(h), Plen: 32}
			} else {
				fl = EntryFlip(sw, netsim.EntryID(1+rng.Intn(8)), 0)
			}
			// Candidate egress: a real neighbor port, sometimes a dead one.
			nbs := n.Neighbors(sw)
			if rng.Intn(8) == 0 {
				fl.Port = 999
			} else {
				fl.Port = n.PortOf[sw][nbs[rng.Intn(len(nbs))]]
			}
			flips = append(flips, fl)
		}
		d := NewDelta("prop", flips)
		got, err1 := m.Check(d)
		want, err2 := m.OracleCheck(d)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errors %v / %v", trial, err1, err2)
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d: incremental %q != oracle %q", trial, got, want)
		}
		// Occasionally commit to evolve the state the next trials verify.
		if rng.Intn(3) == 0 {
			if err := m.Commit(d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	d := NewDelta("seattle->denver", []Flip{
		EntryFlip("sunnyvale", 10, 3),
		EntryFlip("seattle", 10, 1),
		{Switch: "seattle", Addr: 0xac100002, Plen: 32, Port: 0},
	})
	b := EncodeDelta(d)
	got, err := DecodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	b2 := EncodeDelta(got)
	if string(b) != string(b2) {
		t.Fatalf("re-encode mismatch:\n%x\n%x", b, b2)
	}
	if len(got.Flips) != 3 || got.Flips[0].Switch != "seattle" {
		t.Fatalf("bad decode: %+v", got)
	}
	// Out-of-order flips are non-canonical.
	swap := *d
	swap.Flips = []Flip{d.Flips[2], d.Flips[0], d.Flips[1]}
	if _, err := DecodeDelta(EncodeDelta(&swap)); err == nil {
		t.Fatal("unsorted frame must be rejected")
	}
	// Trailing bytes are rejected.
	if _, err := DecodeDelta(append(b, 0)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
	if _, err := DecodeDelta(nil); err == nil {
		t.Fatal("empty frame must be rejected")
	}
}

// TestDeltaFormatPinned compares the frames of the round-trip sample, an
// empty delta and a negative port with the bytes the pre-codec encoder
// produced (recorded at commit 7231d9a): moving the varint primitives into
// internal/codec did not move the format.
func TestDeltaFormatPinned(t *testing.T) {
	var got strings.Builder
	for _, d := range []*Delta{
		NewDelta("seattle->denver", []Flip{
			EntryFlip("sunnyvale", 10, 3),
			EntryFlip("seattle", 10, 1),
			{Switch: "seattle", Addr: 0xac100002, Plen: 32, Port: 0},
		}),
		{Link: "seattle->denver"},
		NewDelta("atlanta->indianapolis", []Flip{EntryFlip("atlanta", 10, -1)}),
	} {
		fmt.Fprintf(&got, "%x\n", EncodeDelta(d))
	}
	want, err := os.ReadFile("testdata/delta.hex")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("delta frame bytes moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestNewDeltaDedupesLaterWins(t *testing.T) {
	d := NewDelta("x", []Flip{
		EntryFlip("seattle", 10, 1),
		EntryFlip("seattle", 10, 7),
	})
	if len(d.Flips) != 1 || d.Flips[0].Port != 7 {
		t.Fatalf("later flip should win: %+v", d.Flips)
	}
}
