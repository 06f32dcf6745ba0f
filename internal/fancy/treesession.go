package fancy

// Tree sessions: the hash-based tree counters and the zooming algorithm
// (§4.2). The pipelined variant counts the root node plus every active zoom
// node simultaneously, exploring up to split^(depth-1) paths in parallel;
// the non-pipelined variant (the Tofino prototype's, Appendix B.1) reuses a
// single node's memory and cycles a zooming-stage register through the
// levels, counting only packets that match the current partial path.

import (
	"sort"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
	"fancy/internal/wire"
)

// zoomNode is one active exploration: a partial hash path and the counter
// node at its tip. Explorations move down one level per counting session
// like a wave (the pipelining of §4.2): a zoom at level L either advances
// into up to k children at level L+1 or retires, so its node slot frees
// every session and the root can start k new explorations per session.
type zoomNode struct {
	path     []uint16
	counters []uint64
	nodeID   uint8 // tag node ID this session (1-based; 0 is the root)
}

// treeSender runs the sender side of the tree session for one port.
//
// Pipelined zooms never nest: a wave starts only on a root counter no
// surviving zoom has as its head, and each zoom moves down one level per
// session, so a wave's zooms share a depth and have distinct paths. No
// target prefixes another; a packet counts at the root and in at most one
// zoom, and the receiver needs only each target's head to mirror that.
type treeSender struct {
	det    *Detector
	port   int
	params tree.Params
	hasher *tree.Hasher

	root    []uint64
	zooms   []*zoomNode
	pathBuf []uint16

	// Non-pipelined state (zooming stage register, max0/max1/... indices).
	stage int
	maxes []uint16
	node  []uint64 // the single reused node

	// Uniform-failure bookkeeping: emit one event per failure episode.
	uniformActive bool

	// localized marks root counters whose exploration already reached a
	// reported leaf during the current mismatch episode. New waves prefer
	// unexplored counters so a single persistent heavy failure cannot
	// starve the others; an entry is cleared once its counter goes clean
	// (the failure healed or was rerouted away).
	localized map[uint16]bool

	selection ZoomSelection
}

func newTreeSender(det *Detector, port int, params tree.Params, seed uint64) *treeSender {
	t := &treeSender{
		det: det, port: port, params: params,
		hasher:    tree.NewHasher(params, seed),
		root:      make([]uint64, params.Width),
		pathBuf:   make([]uint16, 0, params.Depth),
		localized: make(map[uint16]bool),
		selection: det.cfg.ZoomSelection,
	}
	if !params.Pipelined {
		t.maxes = make([]uint16, params.Depth-1)
		t.node = make([]uint64, params.Width)
	}
	return t
}

func (t *treeSender) resetSession() []wire.ZoomTarget {
	if !t.params.Pipelined {
		for i := range t.node {
			t.node[i] = 0
		}
		if t.stage == 0 {
			return nil
		}
		return []wire.ZoomTarget{{Path: append([]uint16(nil), t.maxes[:t.stage]...)}}
	}
	for i := range t.root {
		t.root[i] = 0
	}
	targets := make([]wire.ZoomTarget, len(t.zooms))
	for i, z := range t.zooms {
		for j := range z.counters {
			z.counters[j] = 0
		}
		z.nodeID = uint8(i + 1)
		targets[i] = wire.ZoomTarget{Path: z.path}
	}
	return targets
}

func (t *treeSender) tagPacket(pkt *netsim.Packet) (wire.Tag, bool) {
	t.pathBuf = t.hasher.Path(uint64(pkt.Entry), t.pathBuf[:0])
	path := t.pathBuf
	if !t.params.Pipelined {
		return t.tagNonPipelined(path)
	}
	t.root[path[0]]++
	for _, z := range t.zooms {
		if isPrefix(z.path, path) {
			c := path[len(z.path)]
			z.counters[c]++
			return wire.Tag{Node: z.nodeID, Counter: uint8(c)}, true
		}
	}
	return wire.Tag{Node: 0, Counter: uint8(path[0])}, true
}

func (t *treeSender) tagNonPipelined(path []uint16) (wire.Tag, bool) {
	if t.stage > 0 {
		for l := 0; l < t.stage; l++ {
			if path[l] != t.maxes[l] {
				// Not under the zoomed partial path: not counted this
				// session (root counting pauses while zooming).
				return wire.Tag{}, false
			}
		}
	}
	idx := path[t.stage]
	t.node[idx]++
	return wire.Tag{Node: uint8(t.stage), Counter: uint8(idx)}, true
}

func isPrefix(p, full []uint16) bool {
	if len(p) >= len(full) {
		return false
	}
	for i := range p {
		if p[i] != full[i] {
			return false
		}
	}
	return true
}

// mismatch is one counter with more local than downstream packets.
type mismatch struct {
	idx  uint16
	diff uint64
}

func diffs(local, remote []uint64) []mismatch {
	var out []mismatch
	for i := range local {
		if i < len(remote) && local[i] > remote[i] {
			out = append(out, mismatch{uint16(i), local[i] - remote[i]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].diff != out[b].diff {
			return out[a].diff > out[b].diff
		}
		return out[a].idx < out[b].idx
	})
	return out
}

func (t *treeSender) handleReport(counters []uint64) {
	if !t.params.Pipelined {
		t.handleReportNonPipelined(counters)
		return
	}
	w := t.params.Width
	if len(counters) < w {
		return // malformed
	}
	rootRemote := counters[:w]
	rootMis := diffs(t.root, rootRemote)

	// Uniform-failure test: more than half the root counters mismatch.
	if len(rootMis) > w/2 {
		if !t.uniformActive {
			t.uniformActive = true
			t.det.emit(Event{Time: t.det.s.Now(), Port: t.port, Kind: EventUniform})
		}
		t.zooms = nil // per-entry localization is meaningless here
		return
	}
	if len(rootMis) == 0 {
		t.uniformActive = false
	}

	hadZooms := len(t.zooms) > 0
	k := t.params.Split
	var next []*zoomNode

	// Ablation hook: explore mismatching counters in random order instead
	// of largest-difference-first.
	reorder := func(mis []mismatch) []mismatch {
		if t.selection == SelectRandom && len(mis) > 1 {
			t.det.s.Rand().Shuffle(len(mis), func(a, b int) { mis[a], mis[b] = mis[b], mis[a] })
		}
		return mis
	}

	// Advance the waves: each zoom either reports (leaf level), splits
	// into up to k children one level deeper, or retires as a dead end.
	// Its own node slot frees either way — that is what lets the pipeline
	// explore k^(d-1) paths across d sessions (§4.2).
	for i, z := range t.zooms {
		lo := w * (i + 1)
		if lo+w > len(counters) {
			continue // malformed report; drop this wave
		}
		mis := reorder(diffs(z.counters, counters[lo:lo+w]))
		if len(mis) == 0 {
			continue // transient or collision dead end
		}
		if len(z.path) == t.params.Depth-1 {
			// Leaf level: flag each mismatching leaf counter (Fig. 6c).
			out := t.det.outputs(t.port)
			for _, m := range mis {
				leafPath := make([]uint16, len(z.path)+1)
				copy(leafPath, z.path)
				leafPath[len(z.path)] = m.idx
				out.Bloom.Insert(leafPath)
				t.det.emit(Event{
					Time: t.det.s.Now(), Port: t.port, Kind: EventTreeLeaf,
					Path: leafPath, Diff: m.diff,
				})
			}
			t.localized[z.path[0]] = true
			continue
		}
		for _, m := range mis[:min(k, len(mis))] {
			p := make([]uint16, len(z.path)+1)
			copy(p, z.path)
			p[len(z.path)] = m.idx
			next = append(next, &zoomNode{path: p, counters: make([]uint64, w)})
		}
	}

	// The root starts up to k new waves per session, skipping counters
	// already under exploration ("since it is already zooming in c1, it
	// starts zooming in c2 this time").
	heads := make(map[uint16]bool)
	for _, z := range next {
		heads[z.path[0]] = true
	}
	// Healed counters leave the localized set so they can be re-explored
	// if they fail again later.
	misSet := make(map[uint16]bool, len(rootMis))
	for _, m := range rootMis {
		misSet[m.idx] = true
	}
	for idx := range t.localized {
		if !misSet[idx] {
			delete(t.localized, idx)
		}
	}
	started := 0
	rootMis = reorder(rootMis)
	// Two passes: fresh (never-localized) counters first, then — if wave
	// slots remain — already-localized ones, so persistent heavy failures
	// keep being monitored without starving undiagnosed ones.
	for _, fresh := range []bool{true, false} {
		for _, m := range rootMis {
			if started >= k {
				break
			}
			if heads[m.idx] || t.localized[m.idx] == fresh {
				continue
			}
			heads[m.idx] = true
			started++
			next = append(next, &zoomNode{path: []uint16{m.idx}, counters: make([]uint64, w)})
		}
	}

	if len(next) > 254 {
		// Tag node IDs are one byte; unreachable with sane split/depth.
		next = next[:254]
	}
	t.zooms = next

	if !hadZooms && len(t.zooms) > 0 {
		t.det.emit(Event{Time: t.det.s.Now(), Port: t.port, Kind: EventTreeZoomStart})
	}
}

func (t *treeSender) handleReportNonPipelined(counters []uint64) {
	if len(counters) < t.params.Width {
		return
	}
	mis := diffs(t.node, counters[:t.params.Width])
	switch {
	case t.stage == 0:
		if len(mis) > t.params.Width/2 {
			if !t.uniformActive {
				t.uniformActive = true
				t.det.emit(Event{Time: t.det.s.Now(), Port: t.port, Kind: EventUniform})
			}
			return
		}
		if len(mis) == 0 {
			t.uniformActive = false
			return
		}
		t.maxes[0] = mis[0].idx
		t.stage = 1
		t.det.emit(Event{Time: t.det.s.Now(), Port: t.port, Kind: EventTreeZoomStart})
	case t.stage < t.params.Depth-1:
		if len(mis) == 0 {
			t.stage = 0 // dead end; restart at the root
			return
		}
		t.maxes[t.stage] = mis[0].idx
		t.stage++
	default: // leaf level
		out := t.det.outputs(t.port)
		for _, m := range mis {
			leafPath := make([]uint16, t.stage+1)
			copy(leafPath, t.maxes[:t.stage])
			leafPath[t.stage] = m.idx
			out.Bloom.Insert(leafPath)
			t.det.emit(Event{
				Time: t.det.s.Now(), Port: t.port, Kind: EventTreeLeaf,
				Path: leafPath, Diff: m.diff,
			})
		}
		t.stage = 0
	}
}

// EntryPath returns the hash path the tree assigns to an entry, used by
// evaluations to check the output Bloom filter.
func (t *treeSender) EntryPath(entry netsim.EntryID) []uint16 {
	return t.hasher.Path(uint64(entry), nil)
}

// treeReceiver is the downstream side of the tree session.
type treeReceiver struct {
	params tree.Params

	root  []uint64
	nodes [][]uint64
	heads []uint16 // heads[i]: target i's root counter, also counted by its tags

	// Non-pipelined: single reused node.
	node []uint64
}

func newTreeReceiver(params tree.Params) *treeReceiver {
	r := &treeReceiver{params: params}
	if params.Pipelined {
		r.root = make([]uint64, params.Width)
	} else {
		r.node = make([]uint64, params.Width)
	}
	return r
}

func (r *treeReceiver) resetSession(targets []wire.ZoomTarget) {
	if !r.params.Pipelined {
		for i := range r.node {
			r.node[i] = 0
		}
		return
	}
	for i := range r.root {
		r.root[i] = 0
	}
	// The zoom configuration outlives this call (tag decoding reads it all
	// session), while targets is borrowed from the control-message parse
	// scratch: only each target's head is copied out, so no slice of it is
	// kept. Healthy ports carry no zooms, so this allocates only while a
	// failure is being chased.
	r.nodes = make([][]uint64, len(targets))
	r.heads = r.heads[:0]
	for i, tg := range targets {
		r.nodes[i] = make([]uint64, r.params.Width)
		r.heads = append(r.heads, tg.Path[0])
	}
}

func (r *treeReceiver) countTag(tag wire.Tag) {
	if !r.params.Pipelined {
		if int(tag.Counter) < len(r.node) {
			r.node[tag.Counter]++
		}
		return
	}
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

func (r *treeReceiver) appendSnapshot(dst []uint64) []uint64 {
	if !r.params.Pipelined {
		return append(dst, r.node...)
	}
	dst = append(dst, r.root...)
	for _, n := range r.nodes {
		dst = append(dst, n...)
	}
	return dst
}
