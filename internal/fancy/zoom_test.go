package fancy

// White-box tests of the zooming algorithm: drive a tree unit's sender and
// receiver counters, pipelined or staged, session by session without a
// network, controlling exactly which packets the "downstream" sees.

import (
	"slices"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

// wire2ZoomTargets builds zoom targets from raw paths.
func wire2ZoomTargets(paths [][]uint16) []wire.ZoomTarget {
	out := make([]wire.ZoomTarget, len(paths))
	for i, p := range paths {
		out[i] = wire.ZoomTarget{Path: p}
	}
	return out
}

// tagFor builds a tree tag: node ID (1-based; 0 = root) and counter index.
func tagFor(node, counter uint8) wire.Tag { return wire.Tag{Node: node, Counter: counter} }

// zoomHarness couples a tree sender with a tree receiver and lets tests
// run counting sessions with precise per-entry delivery counts.
type zoomHarness struct {
	t      *testing.T
	det    *Detector
	snd    senderCounters
	rcv    receiverCounters
	events *[]Event

	targets []wire.ZoomTarget // the last Start's targets, reused as the FSM reuses its own
}

func newZoomHarness(t *testing.T, params tree.Params, seed int64) *zoomHarness {
	t.Helper()
	s := sim.New(seed)
	sw := netsim.NewSwitch(s, "sw", 2)
	cfg := Config{HighPriority: []netsim.EntryID{1}, Tree: params, TreeSeed: uint64(seed)}
	det, err := NewDetector(s, sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	det.OnEvent = func(ev Event) { events = append(events, ev) }
	det.MonitorPort(1)
	return &zoomHarness{
		t:      t,
		det:    det,
		snd:    det.monitors[1].tree.counters,
		rcv:    det.newTreeReceiver(),
		events: &events,
	}
}

// pipelined and staged return the harness's sender as the variant its
// tree was built as.
func (h *zoomHarness) pipelined() *pipelinedSender { return h.snd.(*pipelinedSender) }
func (h *zoomHarness) staged() *stagedSender       { return h.snd.(*stagedSender) }

// path is entry's tree hash path on the harness's port.
func (h *zoomHarness) path(entry netsim.EntryID) []uint16 { return h.det.EntryPath(1, entry) }

// session runs one counting session: sent maps entries to packets offered;
// delivered maps entries to how many of those reach the receiver.
func (h *zoomHarness) session(sent, delivered map[netsim.EntryID]int) {
	h.targets = h.snd.resetSession(h.targets[:0])
	h.rcv.resetSession(h.targets)
	for e, n := range sent {
		got := delivered[e]
		pkt := &netsim.Packet{Entry: e}
		for i := 0; i < n; i++ {
			tag, ok := h.snd.tagPacket(pkt)
			if !ok {
				continue
			}
			if i < got {
				h.rcv.countTag(tag)
			}
		}
	}
	h.snd.handleReport(h.rcv.appendSnapshot(nil))
}

func (h *zoomHarness) leafEvents() []Event {
	var out []Event
	for _, ev := range *h.events {
		if ev.Kind == EventTreeLeaf {
			out = append(out, ev)
		}
	}
	return out
}

var zoomParams = tree.Params{Width: 16, Depth: 3, Split: 2, Pipelined: true}

func TestZoomLosslessSessionsSpawnNothing(t *testing.T) {
	h := newZoomHarness(t, zoomParams, 1)
	for i := 0; i < 5; i++ {
		h.session(map[netsim.EntryID]int{100: 10, 200: 7}, map[netsim.EntryID]int{100: 10, 200: 7})
		if len(h.pipelined().zooms) != 0 {
			t.Fatalf("session %d: %d zooms active without loss", i, len(h.pipelined().zooms))
		}
	}
	if len(*h.events) != 0 {
		t.Fatalf("events raised without loss: %v", *h.events)
	}
}

func TestZoomReachesLeafInDepthSessions(t *testing.T) {
	h := newZoomHarness(t, zoomParams, 2)
	const victim = netsim.EntryID(100)
	path := h.path(victim)

	// Session 1: loss observed at the root; one zoom spawns at level 1.
	h.session(map[netsim.EntryID]int{victim: 10}, map[netsim.EntryID]int{victim: 5})
	if len(h.pipelined().zooms) != 1 {
		t.Fatalf("after session 1: %d zooms, want 1", len(h.pipelined().zooms))
	}
	if got := h.pipelined().zooms[0].path; len(got) != 1 || got[0] != path[0] {
		t.Fatalf("zoom path %v, want [%d]", got, path[0])
	}

	// Session 2: the wave advances to level 2 (the leaf level for d=3).
	h.session(map[netsim.EntryID]int{victim: 10}, map[netsim.EntryID]int{victim: 5})
	if len(h.pipelined().zooms) != 1 || len(h.pipelined().zooms[0].path) != 2 {
		t.Fatalf("after session 2: zooms %+v, want one at depth 2", h.pipelined().zooms)
	}

	// Session 3: the leaf mismatch is reported with the entry's full path.
	h.session(map[netsim.EntryID]int{victim: 10}, map[netsim.EntryID]int{victim: 5})
	leaves := h.leafEvents()
	if len(leaves) != 1 {
		t.Fatalf("leaf events = %d, want 1", len(leaves))
	}
	got := leaves[0].Path
	for i := range path {
		if got[i] != path[i] {
			t.Fatalf("reported path %v, want %v", got, path)
		}
	}
	if leaves[0].Diff != 5 {
		t.Errorf("reported diff = %d, want 5", leaves[0].Diff)
	}
	// The output Bloom filter knows the entry now.
	if !h.det.monitors[1].out.Bloom.Contains(path) {
		t.Error("leaf path not in the output Bloom filter")
	}
}

func TestZoomParallelWaves(t *testing.T) {
	// Two entries in different root counters: with split 2 both are
	// explored in parallel and both leaves are reported after 3 sessions.
	h := newZoomHarness(t, zoomParams, 3)
	// Find two entries with distinct root indices.
	a := netsim.EntryID(100)
	b := a + 1
	for h.path(a)[0] == h.path(b)[0] {
		b++
	}
	traffic := map[netsim.EntryID]int{a: 10, b: 10}
	lossy := map[netsim.EntryID]int{a: 4, b: 4}
	for i := 0; i < 3; i++ {
		h.session(traffic, lossy)
	}
	leaves := h.leafEvents()
	found := map[string]bool{}
	for _, ev := range leaves {
		found[pathKeyTest(ev.Path)] = true
	}
	if !found[pathKeyTest(h.path(a))] || !found[pathKeyTest(h.path(b))] {
		t.Fatalf("parallel waves did not localize both entries: %v", leaves)
	}
}

func TestZoomPipelineStaggeredEntries(t *testing.T) {
	// With split 1, only one new wave starts per session, but waves
	// pipeline: entry B's exploration starts while A's is still running
	// (§4.2's pipelining example with c1 and c2).
	params := tree.Params{Width: 16, Depth: 3, Split: 1, Pipelined: true}
	h := newZoomHarness(t, params, 4)
	a := netsim.EntryID(100)
	b := a + 1
	for h.path(a)[0] == h.path(b)[0] {
		b++
	}
	// Make A's mismatch strictly bigger so the first wave picks it.
	traffic := map[netsim.EntryID]int{a: 20, b: 10}
	lossy := map[netsim.EntryID]int{a: 5, b: 4}

	h.session(traffic, lossy) // wave 1 starts on A's counter
	if len(h.pipelined().zooms) != 1 || h.pipelined().zooms[0].path[0] != h.path(a)[0] {
		t.Fatalf("wave 1 = %+v, want A's root index %d", h.pipelined().zooms, h.path(a)[0])
	}
	h.session(traffic, lossy) // wave 1 advances; wave 2 starts on B
	if len(h.pipelined().zooms) != 2 {
		t.Fatalf("after session 2: %d zooms, want 2 (pipelined)", len(h.pipelined().zooms))
	}
	h.session(traffic, lossy) // wave 1 reports A's leaf
	h.session(traffic, lossy) // wave 2 reports B's leaf
	leaves := h.leafEvents()
	found := map[string]bool{}
	for _, ev := range leaves {
		found[pathKeyTest(ev.Path)] = true
	}
	if !found[pathKeyTest(h.path(a))] || !found[pathKeyTest(h.path(b))] {
		t.Fatalf("pipelining failed to localize both entries")
	}
}

func TestZoomDeadEndRetires(t *testing.T) {
	h := newZoomHarness(t, zoomParams, 5)
	const victim = netsim.EntryID(100)
	// One lossy session starts a wave...
	h.session(map[netsim.EntryID]int{victim: 10}, map[netsim.EntryID]int{victim: 5})
	if len(h.pipelined().zooms) != 1 {
		t.Fatal("wave did not start")
	}
	// ...then the loss disappears (transient): the wave dies out.
	h.session(map[netsim.EntryID]int{victim: 10}, map[netsim.EntryID]int{victim: 10})
	if len(h.pipelined().zooms) != 0 {
		t.Fatalf("dead-end wave still active: %+v", h.pipelined().zooms)
	}
	if len(h.leafEvents()) != 0 {
		t.Error("transient loss reported a leaf")
	}
}

func TestZoomUniformClearsWaves(t *testing.T) {
	h := newZoomHarness(t, zoomParams, 6)
	// Populate most root counters with lossy traffic.
	sent := map[netsim.EntryID]int{}
	lossy := map[netsim.EntryID]int{}
	for e := netsim.EntryID(0); e < 200; e++ {
		sent[e] = 4
		lossy[e] = 2
	}
	h.session(sent, lossy)
	uniform := 0
	for _, ev := range *h.events {
		if ev.Kind == EventUniform {
			uniform++
		}
	}
	if uniform != 1 {
		t.Fatalf("uniform events = %d, want 1", uniform)
	}
	if len(h.pipelined().zooms) != 0 {
		t.Error("uniform classification must clear per-entry waves")
	}
	// The episode does not re-fire while it persists.
	h.session(sent, lossy)
	uniform = 0
	for _, ev := range *h.events {
		if ev.Kind == EventUniform {
			uniform++
		}
	}
	if uniform != 1 {
		t.Errorf("uniform re-fired during the same episode: %d", uniform)
	}
}

func TestZoomReceiverHeadCounting(t *testing.T) {
	// Targets never nest, so a node tag counts in its own node and in the
	// root counter its target descends from, and nowhere else.
	rcv := &pipelinedReceiver{root: make([]uint64, 8)} // width 8
	rcv.resetSession(wire2ZoomTargets([][]uint16{{3, 5}, {4, 1}}))

	rcv.countTag(tagFor(2, 6)) // target {4,1}, counter 6
	// Layout: root(8) | {3,5}(8) | {4,1}(8).
	want := make([]uint64, 24)
	want[4] = 1    // root: the target's head
	want[16+6] = 1 // {4,1}: own counter
	if got := rcv.appendSnapshot(nil); !slices.Equal(got, want) {
		t.Fatalf("counters = %v, want %v", got, want)
	}
}

// Staged (Tofino-style, non-pipelined) zooming: a single reused node
// register and a stage counter that cycles root → level 1 → ... → leaves →
// root.
func TestZoomNonPipelinedStageCycle(t *testing.T) {
	params := tree.Params{Width: 16, Depth: 3, Split: 1, Pipelined: false}
	h := newZoomHarness(t, params, 7)
	const victim = netsim.EntryID(321)
	path := h.path(victim)
	traffic := map[netsim.EntryID]int{victim: 10, victim + 1: 10}
	lossy := map[netsim.EntryID]int{victim: 5, victim + 1: 10}

	// Stage 0: root counting; mismatch selects max0 and advances.
	if h.staged().stage != 0 {
		t.Fatalf("initial stage = %d", h.staged().stage)
	}
	h.session(traffic, lossy)
	if h.staged().stage != 1 || h.staged().maxes[0] != path[0] {
		t.Fatalf("after stage 0: stage=%d max0=%d, want 1/%d", h.staged().stage, h.staged().maxes[0], path[0])
	}
	// Stage 1: only packets under max0 are counted at all; the healthy
	// entry is invisible this session.
	h.session(traffic, lossy)
	if h.staged().stage != 2 || h.staged().maxes[1] != path[1] {
		t.Fatalf("after stage 1: stage=%d max1=%d, want 2/%d", h.staged().stage, h.staged().maxes[1], path[1])
	}
	// Stage 2 (leaf): report and wrap back to the root.
	h.session(traffic, lossy)
	leaves := h.leafEvents()
	if len(leaves) != 1 {
		t.Fatalf("leaf events = %d, want 1", len(leaves))
	}
	for i := range path {
		if leaves[0].Path[i] != path[i] {
			t.Fatalf("leaf path %v, want %v", leaves[0].Path, path)
		}
	}
	if h.staged().stage != 0 {
		t.Fatalf("stage = %d after leaves, want 0 (wrap)", h.staged().stage)
	}
}

func TestZoomNonPipelinedDeadEndResets(t *testing.T) {
	params := tree.Params{Width: 16, Depth: 3, Split: 1, Pipelined: false}
	h := newZoomHarness(t, params, 8)
	const victim = netsim.EntryID(321)
	h.session(map[netsim.EntryID]int{victim: 10}, map[netsim.EntryID]int{victim: 5})
	if h.staged().stage != 1 {
		t.Fatal("zoom did not start")
	}
	// Loss vanishes: the stage machine resets to the root.
	h.session(map[netsim.EntryID]int{victim: 10}, map[netsim.EntryID]int{victim: 10})
	if h.staged().stage != 0 {
		t.Fatalf("stage = %d after clean session, want 0", h.staged().stage)
	}
	if len(h.leafEvents()) != 0 {
		t.Error("transient loss reported a leaf")
	}
}

func TestZoomNonPipelinedUniform(t *testing.T) {
	params := tree.Params{Width: 16, Depth: 3, Split: 1, Pipelined: false}
	h := newZoomHarness(t, params, 9)
	sent := map[netsim.EntryID]int{}
	lossy := map[netsim.EntryID]int{}
	for e := netsim.EntryID(0); e < 100; e++ {
		sent[e] = 4
		lossy[e] = 2
	}
	h.session(sent, lossy)
	uniform := false
	for _, ev := range *h.events {
		if ev.Kind == EventUniform {
			uniform = true
		}
	}
	if !uniform {
		t.Fatal("non-pipelined tree missed a uniform failure")
	}
	if h.staged().stage != 0 {
		t.Error("uniform classification must not start zooming")
	}
}

// TestZoomNonPipelinedRandomSelection: under SelectRandom a staged tree
// picks the index it zooms into through the same shuffle as a pipelined
// one, so it can descend a mismatch that is not the largest and flag that
// entry's leaf; under SelectMaxDiff it always takes the largest.
func TestZoomNonPipelinedRandomSelection(t *testing.T) {
	params := tree.Params{Width: 16, Depth: 3, Split: 1, Pipelined: false}
	for _, sel := range []ZoomSelection{SelectMaxDiff, SelectRandom} {
		h := newZoomHarness(t, params, 11)
		h.staged().selection = sel
		const heavy = netsim.EntryID(321)
		light := heavy + 1
		for h.path(light)[0] == h.path(heavy)[0] {
			light++
		}
		sent := map[netsim.EntryID]int{heavy: 20, light: 20}
		lossy := map[netsim.EntryID]int{heavy: 10, light: 18}
		// Start a zoom from the root until it takes the light entry's
		// counter; a clean session sends the tree back to the root.
		tries := 0
		for ; tries < 40; tries++ {
			h.session(sent, lossy)
			if h.staged().stage != 1 {
				t.Fatalf("%v: stage %d after a lossy root session, want 1", sel, h.staged().stage)
			}
			if h.staged().maxes[0] == h.path(light)[0] {
				break
			}
			h.session(sent, sent)
		}
		if sel == SelectMaxDiff {
			if tries != 40 {
				t.Errorf("max-diff selection zoomed into the smaller mismatch")
			}
			continue
		}
		if tries == 40 {
			t.Fatal("random selection never zoomed into the smaller mismatch in 40 root sessions")
		}
		h.session(sent, lossy)
		h.session(sent, lossy)
		leaves := h.leafEvents()
		if len(leaves) != 1 || !slices.Equal(leaves[0].Path, h.path(light)) {
			t.Errorf("leaf events %+v, want one for the light entry's path %v", leaves, h.path(light))
		}
	}
}

// TestZoomOneLevelTreeFlagsRoot: a tree of depth 1 is its root node
// alone, so a mismatching root counter is a leaf. Both variants flag the
// lossy entry's one-index path after one session and advertise no zoom
// target (a receiver drops a target as long as the tree is deep). Before,
// the staged sender indexed its empty max register, and the pipelined one
// started waves that could never reach a leaf.
func TestZoomOneLevelTreeFlagsRoot(t *testing.T) {
	for _, pipelined := range []bool{true, false} {
		h := newZoomHarness(t, tree.Params{Width: 16, Depth: 1, Split: 1, Pipelined: pipelined}, 10)
		const victim = netsim.EntryID(321)
		h.session(map[netsim.EntryID]int{victim: 10, victim + 1: 10}, map[netsim.EntryID]int{victim: 5, victim + 1: 10})
		leaves := h.leafEvents()
		if len(leaves) != 1 || !slices.Equal(leaves[0].Path, h.path(victim)) || leaves[0].Diff != 5 || !h.det.Flagged(1, victim) {
			t.Errorf("pipelined=%v: leaf events %+v, want one for %v with diff 5", pipelined, leaves, h.path(victim))
		}
		if targets := h.snd.resetSession(nil); len(targets) != 0 {
			t.Errorf("pipelined=%v: a one-level tree advertises zoom targets %v", pipelined, targets)
		}
	}
}

// TestControlScratchNotRetained covers the borrow contract of the control
// path: OnIngress decodes every control message into one per-detector
// scratch (wire.UnmarshalInto reuses its Targets and Path arrays), and the
// one consumer whose zoom configuration outlives the call — a pipelined
// pipelinedReceiver — must keep nothing that aliases it. A pipelined Start
// configures the receiver; a second message of the same shape but other
// contents is then decoded into the same scratch; tags counted afterwards
// must land exactly where they land in a run without the overwrite.
func TestControlScratchNotRetained(t *testing.T) {
	count := func(overwrite bool) []uint64 {
		s := sim.New(1)
		sw := netsim.NewSwitch(s, "sw", 2)
		det, err := NewDetector(s, sw, Config{
			Tree: tree.Params{Width: 8, Depth: 3, Split: 2, Pipelined: true}, TreeSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		det.ListenPort(1)
		deliver := func(typ wire.MsgType, session uint32, paths [][]uint16) {
			t.Helper()
			m := &wire.Message{
				Header:  wire.Header{Type: typ, Kind: wire.KindTree, Epoch: 1, Session: session, Unit: wire.TreeUnit},
				Targets: wire2ZoomTargets(paths),
			}
			if !det.OnIngress(&netsim.Packet{Proto: netsim.ProtoFancy, Ctl: m.Marshal(nil)}, 1) {
				t.Fatal("control message was not consumed")
			}
		}
		deliver(wire.MsgStart, 1, [][]uint16{{3, 5}, {4, 1}})
		if overwrite {
			// A Stop for a session the receiver does not know: ignored by the
			// FSM, but decoded — into the arrays the Start's targets were
			// parsed into.
			deliver(wire.MsgStop, 99, [][]uint16{{7, 1}, {6, 2}})
			if got := det.ctlScratch.Targets; len(got) != 2 || got[1].Path[0] != 6 {
				t.Fatalf("scratch targets %v: the second message did not reuse the scratch", got)
			}
		}
		rcv := det.listeners[1].tree.counters.(*pipelinedReceiver)
		// One tag per node: the root, target {3,5} and target {4,1}; each
		// target's tag also counts at its head, root[3] or root[4].
		for _, tag := range []wire.Tag{tagFor(0, 2), tagFor(1, 6), tagFor(2, 4)} {
			rcv.countTag(tag)
		}
		return rcv.appendSnapshot(nil)
	}
	plain, overwritten := count(false), count(true)
	// root ‖ node {3,5} ‖ node {4,1}, 8 counters each.
	want := make([]uint64, 24)
	want[2], want[3], want[4] = 1, 1, 1 // root: own tag; both targets' heads
	want[8+6] = 1                       // {3,5}: own tag
	want[16+4] = 1                      // {4,1}: own tag
	if !slices.Equal(plain, want) {
		t.Fatalf("counters without the overwrite = %v, want %v", plain, want)
	}
	if !slices.Equal(overwritten, plain) {
		t.Errorf("counters after the scratch was overwritten = %v, want %v: the receiver aliases the decode scratch", overwritten, plain)
	}
}

// TestZoomWaveCycleDoesNotAllocate pins a tree unit's report path once its
// waves are warm, in both variants: a cycle of the sender's reset (its
// Start's targets appended into a reused list), the receiver's reset, a
// lossy session's tags and the sender's report handling allocates nothing
// but each flagged leaf's Event.Path.
func TestZoomWaveCycleDoesNotAllocate(t *testing.T) {
	for _, pipelined := range []bool{true, false} {
		params := zoomParams
		params.Pipelined = pipelined
		h := newZoomHarness(t, params, 11)
		leaves := 0
		h.det.OnEvent = func(ev Event) {
			if ev.Kind == EventTreeLeaf {
				leaves++
			}
		}
		// Three lossy entries under distinct root counters, ten packets
		// each; every other packet reaches the receiver.
		var pkts []netsim.Packet
		roots := map[uint16]bool{}
		for e := netsim.EntryID(100); len(roots) < 3; e++ {
			if r := h.path(e)[0]; !roots[r] {
				roots[r] = true
				for range 10 {
					pkts = append(pkts, netsim.Packet{Entry: e})
				}
			}
		}
		report := make([]uint64, 0, 64*params.Width)
		cycle := func() {
			h.targets = h.snd.resetSession(h.targets[:0])
			h.rcv.resetSession(h.targets)
			for i := range pkts {
				if tag, ok := h.snd.tagPacket(&pkts[i]); ok && i%2 == 0 {
					h.rcv.countTag(tag)
				}
			}
			report = h.rcv.appendSnapshot(report[:0])
			h.snd.handleReport(report)
		}
		// AllocsPerRun calls its function once to warm up, then once more
		// measured: flagged is the measured call's leaves.
		const cycles = 100
		flagged := 0
		allocs := testing.AllocsPerRun(1, func() {
			leaves = 0
			for range cycles {
				cycle()
			}
			flagged = leaves
		})
		if flagged == 0 {
			t.Fatalf("pipelined=%v: %d cycles flagged no leaf", pipelined, cycles)
		}
		if int(allocs) != flagged {
			t.Errorf("pipelined=%v: %d cycles allocate %.0f objects for %d flagged leaves, want one per leaf", pipelined, cycles, allocs, flagged)
		}
	}
}
