package fancy

// Tree sessions: the hash-based tree counters and the zooming algorithm
// (§4.2), in two variants; a tree unit is built as one or the other and
// never tests which it is again. The pipelined tree counts the root node
// plus every active zoom node simultaneously, exploring up to
// split^(depth-1) paths in parallel; the staged tree (the Tofino
// prototype's, Appendix B.1) reuses a single node's memory and cycles a
// zooming-stage register through the levels, counting only packets that
// match the current partial path. Every tree sender of a detector hashes
// with the detector's one tree.Hasher; the receivers learn indices from
// the tags.
//
// A report allocates nothing but a flagged leaf's Event.Path: mismatch
// lists and the waves being built live in the detector's zoomScratch, a
// pipelined sender swaps its zoom nodes with that scratch rather than
// building new ones, a Start's target list is appended into the FSM's, and
// a receiver reuses its node counters.

import (
	"cmp"
	"slices"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/wire"
)

// newTreeSender builds the sender counters of port's tree unit in the
// configured variant.
func (d *Detector) newTreeSender(port int) senderCounters {
	p, base := d.cfg.Tree, treeReporter{det: d, port: port, hasher: d.hasher, selection: d.cfg.ZoomSelection}
	if !p.Pipelined {
		return &stagedSender{
			treeReporter: base,
			maxes:        make([]uint16, p.Depth-1),
			node:         make([]uint64, p.Width),
		}
	}
	return &pipelinedSender{
		treeReporter: base,
		root:         make([]uint64, p.Width),
		pathBuf:      make([]uint16, 0, p.Depth),
		localized:    make(map[uint16]bool),
	}
}

// zoomScratch is the working memory of a tree sender's report: handling a
// report is synchronous, so one set on the detector serves every port.
type zoomScratch struct {
	mis  []mismatch // the root's mismatches, then one node's after them
	next []zoomNode // a pipelined sender's next waves, then its old ones
}

// extend returns s one element longer and that element, which keeps
// whatever the array held there: nodes reuse the memory of earlier ones.
func extend[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

// newTreeReceiver builds the receiver counters of a tree unit in the
// configured variant.
func (d *Detector) newTreeReceiver() receiverCounters {
	if !d.cfg.Tree.Pipelined {
		return &stagedReceiver{node: make([]uint64, d.cfg.Tree.Width)}
	}
	return &pipelinedReceiver{root: make([]uint64, d.cfg.Tree.Width)}
}

// treeHolds reports whether the configured tree can hold the zoom targets
// of a tree Start: at most maxZoomTargets, each a path of 1 to Depth-1
// indices below Width.
func (d *Detector) treeHolds(targets []wire.ZoomTarget) bool {
	p := d.cfg.Tree
	if len(targets) > maxZoomTargets {
		return false
	}
	for _, tg := range targets {
		if len(tg.Path) == 0 || len(tg.Path) >= p.Depth || int(slices.Max(tg.Path)) >= p.Width {
			return false
		}
	}
	return true
}

// treeReporter is what both tree senders share: the port they compare and
// report for, the detector's hasher, the counter-selection policy, and the
// uniform-failure episode.
type treeReporter struct {
	det       *Detector
	port      int
	hasher    *tree.Hasher
	selection ZoomSelection

	// uniformActive is set while a uniform failure lasts: one event per
	// episode.
	uniformActive bool
}

// uniform is the uniform-failure test on a root comparison: more than
// half of the width root counters mismatch. It raises EventUniform once
// per episode; a root without a mismatch ends the episode.
func (t *treeReporter) uniform(mis []mismatch, width int) bool {
	if len(mis) > width/2 {
		if !t.uniformActive {
			t.uniformActive = true
			t.det.emit(Event{Time: t.det.s.Now(), Port: t.port, Kind: EventUniform})
		}
		return true
	}
	if len(mis) == 0 {
		t.uniformActive = false
	}
	return false
}

// reorder puts mismatches in the order the zooming explores them: as diffs
// sorts them (largest difference first), or shuffled under SelectRandom,
// the ablation's policy.
func (t *treeReporter) reorder(mis []mismatch) []mismatch {
	if t.selection == SelectRandom && len(mis) > 1 {
		t.det.s.Rand().Shuffle(len(mis), func(a, b int) { mis[a], mis[b] = mis[b], mis[a] })
	}
	return mis
}

// flagLeaves flags each mismatching leaf counter of the leaf node at
// prefix (Fig. 6c): its path goes into the output Bloom filter and is
// reported in an EventTreeLeaf.
func (t *treeReporter) flagLeaves(prefix []uint16, mis []mismatch) {
	out := t.det.outputs(t.port)
	for _, m := range mis {
		leafPath := make([]uint16, len(prefix)+1)
		copy(leafPath, prefix)
		leafPath[len(prefix)] = m.idx
		out.Bloom.Insert(leafPath)
		t.det.emit(Event{
			Time: t.det.s.Now(), Port: t.port, Kind: EventTreeLeaf,
			Path: leafPath, Diff: m.diff,
		})
	}
}

// mismatch is one counter with more local than downstream packets.
type mismatch struct {
	idx  uint16
	diff uint64
}

// diffs appends to dst the counters with more local than remote packets,
// largest difference first and ties by index: a total order, so any sort
// gives the same list.
func diffs(dst []mismatch, local, remote []uint64) []mismatch {
	n := len(dst)
	for i := range local {
		if i < len(remote) && local[i] > remote[i] {
			dst = append(dst, mismatch{uint16(i), local[i] - remote[i]})
		}
	}
	slices.SortFunc(dst[n:], func(a, b mismatch) int {
		if c := cmp.Compare(b.diff, a.diff); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return dst
}

// zoomNode is one active exploration: a partial hash path and the counter
// node at its tip. Explorations move down one level per counting session
// like a wave (the pipelining of §4.2): a zoom at level L either advances
// into up to k children at level L+1 or retires, so its node slot frees
// every session and the root can start k new explorations per session.
// A node keeps its path's and counters' memory when it retires, for the
// next node built in its place.
type zoomNode struct {
	path     []uint16
	counters []uint64
	nodeID   uint8 // tag node ID this session (1-based; 0 is the root)
}

// pipelinedSender is the sender side of a pipelined tree.
//
// Zooms never nest: a wave starts only on a root counter no surviving zoom
// has as its head, and each zoom moves down one level per session, so a
// wave's zooms share a depth and have distinct paths. No target prefixes
// another; a packet counts at the root and in at most one zoom, and the
// receiver needs only each target's head to mirror that.
type pipelinedSender struct {
	treeReporter

	root    []uint64
	zooms   []zoomNode
	pathBuf []uint16

	// localized marks root counters whose exploration already reached a
	// reported leaf during the current mismatch episode. New waves prefer
	// unexplored counters so a single persistent heavy failure cannot
	// starve the others; an entry is cleared once its counter goes clean
	// (the failure healed or was rerouted away).
	localized map[uint16]bool
}

func (t *pipelinedSender) resetSession(dst []wire.ZoomTarget) []wire.ZoomTarget {
	clear(t.root)
	for i := range t.zooms {
		z := &t.zooms[i]
		clear(z.counters)
		z.nodeID = uint8(i + 1)
		dst = append(dst, wire.ZoomTarget{Path: z.path})
	}
	return dst
}

func (t *pipelinedSender) tagPacket(pkt *netsim.Packet) (wire.Tag, bool) {
	t.pathBuf = t.hasher.Path(uint64(pkt.Entry), t.pathBuf[:0])
	path := t.pathBuf
	t.root[path[0]]++
	for i := range t.zooms {
		if z := &t.zooms[i]; isPrefix(z.path, path) {
			c := path[len(z.path)]
			z.counters[c]++
			return wire.Tag{Node: z.nodeID, Counter: uint8(c)}, true
		}
	}
	return wire.Tag{Node: 0, Counter: uint8(path[0])}, true
}

func isPrefix(p, full []uint16) bool {
	return len(p) < len(full) && slices.Equal(p, full[:len(p)])
}

func (t *pipelinedSender) handleReport(counters []uint64) {
	p := t.det.cfg.Tree
	w := p.Width
	if len(counters) < w {
		return // malformed
	}
	sc := &t.det.zoom
	sc.mis = diffs(sc.mis[:0], t.root, counters[:w])
	rootMis := sc.mis
	if t.uniform(rootMis, w) {
		t.zooms = t.zooms[:0] // per-entry localization is meaningless here
		return
	}
	if p.Depth == 1 {
		t.flagLeaves(nil, rootMis) // a one-level tree's root is its leaf node
		return
	}

	hadZooms := len(t.zooms) > 0
	k := p.Split
	next := sc.next[:0]

	// Advance the waves: each zoom either reports (leaf level), splits
	// into up to k children one level deeper, or retires as a dead end.
	// Its own node slot frees either way — that is what lets the pipeline
	// explore k^(d-1) paths across d sessions (§4.2).
	for i := range t.zooms {
		z := &t.zooms[i]
		lo := w * (i + 1)
		if lo+w > len(counters) {
			continue // malformed report; drop this wave
		}
		// This node's mismatches go after rootMis; an append that
		// reallocates leaves rootMis on the old array, which nothing writes.
		sc.mis = diffs(sc.mis[:len(rootMis)], z.counters, counters[lo:lo+w])
		mis := t.reorder(sc.mis[len(rootMis):])
		if len(mis) == 0 {
			continue // transient or collision dead end
		}
		if len(z.path) == p.Depth-1 {
			t.flagLeaves(z.path, mis)
			t.localized[z.path[0]] = true
			continue
		}
		for _, m := range mis[:min(k, len(mis))] {
			var c *zoomNode
			next, c = t.extendZooms(next)
			c.path = append(append(c.path, z.path...), m.idx)
		}
	}

	// Healed counters leave the localized set so they can be re-explored
	// if they fail again later. marked is per root counter; Params.Validate
	// bounds the width at 256.
	var marked [256]bool
	for _, m := range rootMis {
		marked[m.idx] = true
	}
	for idx := range t.localized {
		if !marked[idx] {
			delete(t.localized, idx)
		}
	}

	// The root starts up to k new waves per session, skipping counters
	// already under exploration ("since it is already zooming in c1, it
	// starts zooming in c2 this time").
	marked = [256]bool{}
	for _, z := range next {
		marked[z.path[0]] = true
	}
	started := 0
	rootMis = t.reorder(rootMis)
	// Two passes: fresh (never-localized) counters first, then — if wave
	// slots remain — already-localized ones, so persistent heavy failures
	// keep being monitored without starving undiagnosed ones.
	for _, fresh := range []bool{true, false} {
		for _, m := range rootMis {
			if started >= k {
				break
			}
			if marked[m.idx] || t.localized[m.idx] == fresh {
				continue
			}
			marked[m.idx] = true
			started++
			var c *zoomNode
			next, c = t.extendZooms(next)
			c.path = append(c.path, m.idx)
		}
	}

	if len(next) > maxZoomTargets {
		// Tag node IDs are one byte; unreachable with sane split/depth.
		next = next[:maxZoomTargets]
	}
	t.zooms, sc.next = next, t.zooms[:0]

	if !hadZooms && len(t.zooms) > 0 {
		t.det.emit(Event{Time: t.det.s.Now(), Port: t.port, Kind: EventTreeZoomStart})
	}
}

// extendZooms returns zs one zoom longer and that zoom, with an empty
// path and counters of the tree's width (zeroed by resetSession).
func (t *pipelinedSender) extendZooms(zs []zoomNode) ([]zoomNode, *zoomNode) {
	zs, z := extend(zs)
	if z.counters == nil {
		p := t.det.cfg.Tree
		z.path, z.counters = make([]uint16, 0, p.Depth-1), make([]uint64, p.Width)
	}
	z.path = z.path[:0]
	return zs, z
}

// maxZoomTargets bounds a pipelined tree's zooms: tag node IDs are one
// byte, 0 the root's.
const maxZoomTargets = 254

// stagedSender is the sender side of a staged tree: one node register,
// reused at every level, and the zooming stage register with the index
// chosen at each level above it (the max0/max1/... registers).
type stagedSender struct {
	treeReporter

	stage int
	maxes []uint16 // Depth-1 indices; maxes[:stage] is the zoomed path
	node  []uint64
}

// resetSession's target path is maxes itself: its first stage indices
// change only at the next report, and a Start is marshalled when sent.
func (t *stagedSender) resetSession(dst []wire.ZoomTarget) []wire.ZoomTarget {
	clear(t.node)
	if t.stage == 0 {
		return dst
	}
	return append(dst, wire.ZoomTarget{Path: t.maxes[:t.stage]})
}

func (t *stagedSender) tagPacket(pkt *netsim.Packet) (wire.Tag, bool) {
	e := uint64(pkt.Entry)
	for l, idx := range t.maxes[:t.stage] {
		if t.hasher.Index(e, l) != idx {
			// Not under the zoomed partial path: not counted this
			// session (root counting pauses while zooming).
			return wire.Tag{}, false
		}
	}
	idx := t.hasher.Index(e, t.stage)
	t.node[idx]++
	return wire.Tag{Node: uint8(t.stage), Counter: uint8(idx)}, true
}

func (t *stagedSender) handleReport(counters []uint64) {
	w := len(t.node)
	if len(counters) < w {
		return
	}
	sc := &t.det.zoom
	sc.mis = diffs(sc.mis[:0], t.node, counters[:w])
	mis := sc.mis
	if t.stage == 0 && t.uniform(mis, w) {
		return
	}
	mis = t.reorder(mis)
	switch {
	case len(mis) == 0:
		t.stage = 0 // nothing to chase, or a dead end: restart at the root
	case t.stage == len(t.maxes): // leaf level
		t.flagLeaves(t.maxes[:t.stage], mis)
		t.stage = 0
	default:
		t.maxes[t.stage] = mis[0].idx
		t.stage++
		if t.stage == 1 {
			t.det.emit(Event{Time: t.det.s.Now(), Port: t.port, Kind: EventTreeZoomStart})
		}
	}
}

// pipelinedReceiver is the downstream side of a pipelined tree.
type pipelinedReceiver struct {
	root  []uint64
	nodes [][]uint64
	heads []uint16 // heads[i]: target i's root counter, also counted by its tags
}

func (r *pipelinedReceiver) resetSession(targets []wire.ZoomTarget) {
	clear(r.root)
	// The zoom configuration outlives this call (tag decoding reads it all
	// session), while targets is borrowed from the control-message parse
	// scratch: only each target's head is copied out, so no slice of it is
	// kept. A node's counters are those of an earlier session's node in its
	// place, zeroed, so this allocates only when a session has more zooms
	// than any before.
	r.nodes, r.heads = r.nodes[:0], r.heads[:0]
	for _, tg := range targets {
		var n *[]uint64
		r.nodes, n = extend(r.nodes)
		if *n == nil {
			*n = make([]uint64, len(r.root))
		} else {
			clear(*n)
		}
		r.heads = append(r.heads, tg.Path[0])
	}
}

func (r *pipelinedReceiver) countTag(tag wire.Tag) {
	if tag.Node == 0 {
		if int(tag.Counter) < len(r.root) {
			r.root[tag.Counter]++
		}
		return
	}
	i := int(tag.Node) - 1
	if i >= len(r.nodes) {
		return // stale tag from a previous session layout
	}
	r.root[r.heads[i]]++
	if int(tag.Counter) < len(r.nodes[i]) {
		r.nodes[i][tag.Counter]++
	}
}

func (r *pipelinedReceiver) appendSnapshot(dst []uint64) []uint64 {
	dst = append(dst, r.root...)
	for _, n := range r.nodes {
		dst = append(dst, n...)
	}
	return dst
}

// stagedReceiver is the downstream side of a staged tree: the one node
// register, whatever the stage.
type stagedReceiver struct {
	node []uint64
}

func (r *stagedReceiver) resetSession([]wire.ZoomTarget) { clear(r.node) }

func (r *stagedReceiver) countTag(tag wire.Tag) {
	if int(tag.Counter) < len(r.node) {
		r.node[tag.Counter]++
	}
}

func (r *stagedReceiver) appendSnapshot(dst []uint64) []uint64 { return append(dst, r.node...) }
