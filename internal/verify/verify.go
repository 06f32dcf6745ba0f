// Package verify is an incremental, atom-based forwarding-state verifier in
// the style of Delta-net: the installed prefixes of every switch partition
// the IPv4 space into atoms (maximal intervals whose packets share one
// longest-prefix-match route on every switch), and the network's forwarding
// behavior is a per-atom next-hop function over switches. A reroute delta
// touches only the atoms whose LPM winner it flips, so checking
// loop-freedom and blackhole-freedom of the post-commit state re-walks just
// those atoms — constant-ish work per commit instead of whole-network
// recomputation. This is what lets the fleet correlator verify every
// fast-reroute commit on the localization path (ISSUE 8 / ROADMAP
// "verify reroutes before committing them, in real time").
//
// The model is a snapshot: NewModel reads the live route tables once, and
// from then on Commit is the only mutation path — the model learns of a
// change only when it is told. Callers that bypass the verifier
// (degraded-mode local protection, verify-unavailable fallback) must sync
// the model with an unchecked Commit so later checks see the true state.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"fancy/internal/netsim"
	"fancy/internal/topo"
)

// Next-hop sentinels in the per-atom forwarding function. Non-negative
// values are switch indices.
const (
	nhDrop    int32 = -1 // no route, or egress port with no attached peer
	nhDeliver int32 = -2 // egress port leads to a host: traffic delivered
)

// atom is a maximal address interval [lo, hi] (inclusive) on which every
// switch's LPM decision is constant.
type atom struct{ lo, hi uint32 }

// pfx is one installed prefix and the egress port its route had when the
// tables were read.
type pfx struct {
	key  uint64 // pfxKey(addr, plen)
	port int
}

func byKey(a, b pfx) int { return cmp.Compare(a.key, b.key) }

// Model is the atom-indexed forwarding state of one network.
type Model struct {
	switches []string
	swIdx    map[string]int
	portPeer []map[int]int32 // per switch: egress port -> peer index or sentinel
	pfxs     []pfx           // every installed prefix, ascending key within a switch
	pfxAt    []int           // switch i's prefixes are pfxs[pfxAt[i]:pfxAt[i+1]]
	bounds   []uint64        // sorted distinct cut points; 64-bit, as hi+1 may be 2^32
	atoms    []atom          // sorted, non-overlapping, covered intervals
	next     [][]int32       // [atom][switch] -> next hop, rows cut from nextSlab
	win      [][]int8        // [atom][switch] -> winning prefix length, -1 if none; rows cut from winSlab
	nextSlab []int32
	winSlab  []int8
}

func pfxKey(addr uint32, plen int) uint64 { return uint64(addr)<<6 | uint64(plen) }

// keySpan returns the inclusive address interval a prefix key covers.
func keySpan(key uint64) (uint32, uint32) { return span(uint32(key>>6), int(key&63)) }

// span returns the inclusive address interval covered by addr/plen.
func span(addr uint32, plen int) (uint32, uint32) {
	if plen == 0 {
		return 0, ^uint32(0)
	}
	mask := ^uint32(0) << (32 - plen)
	return addr & mask, addr&mask | ^mask
}

// NewModel snapshots the network's installed forwarding state. Build it
// after routes are installed: prefixes added later are unknown to the model
// and deltas touching them fail Check with an error (the fleet treats that
// as verifier-unavailable and falls back to unverified commits).
func NewModel(net *topo.Network) *Model {
	m := &Model{swIdx: make(map[string]int, len(net.Switches))}
	for sw := range net.Switches {
		m.switches = append(m.switches, sw)
	}
	slices.Sort(m.switches)
	nsw := len(m.switches)
	for i, sw := range m.switches {
		m.swIdx[sw] = i
	}

	// Port map: host-facing ports deliver, inter-switch ports forward to the
	// peer switch, anything else drops.
	m.portPeer = make([]map[int]int32, nsw)
	for i, sw := range m.switches {
		pp := make(map[int]int32)
		m.portPeer[i] = pp
		for nb, port := range net.PortOf[sw] {
			if net.HostAt(nb) == sw {
				pp[port] = nhDeliver
			} else if j, ok := m.swIdx[nb]; ok {
				pp[port] = int32(j)
			}
		}
	}

	// Collect every installed prefix, per switch in ascending key order
	// (Walk's trie order already is; the sort keeps that a local fact). The
	// prefix boundaries cut the address space into intervals; they are
	// compacted per switch, since switches mostly share their prefixes.
	total := 0
	for _, sw := range m.switches {
		total += net.Switches[sw].Routes.Len()
	}
	visit := m.addPrefix
	m.pfxs = make([]pfx, 0, total)
	m.pfxAt = append(m.pfxAt, 0)
	for _, sw := range m.switches {
		start := len(m.pfxs)
		net.Switches[sw].Routes.Walk(visit)
		slices.SortFunc(m.pfxs[start:], byKey)
		m.pfxAt = append(m.pfxAt, len(m.pfxs))
		for _, p := range m.pfxs[start:] {
			lo, hi := keySpan(p.key)
			m.bounds = append(m.bounds, uint64(lo), uint64(hi)+1)
		}
		slices.Sort(m.bounds)
		m.bounds = slices.Compact(m.bounds)
	}

	// Resolve every interval on every switch by painting the switch's
	// prefixes in key order. A prefix sorts after every prefix containing
	// it, so a cell's last paint is its longest match; a prefix's ends are
	// bounds, so it covers a run of whole intervals.
	nint := max(len(m.bounds)-1, 0)
	m.nextSlab = make([]int32, nint*nsw)
	m.winSlab = make([]int8, nint*nsw)
	for c := range m.nextSlab {
		m.nextSlab[c], m.winSlab[c] = nhDrop, -1
	}
	for i := range nsw {
		for _, p := range m.pfxs[m.pfxAt[i]:m.pfxAt[i+1]] {
			lo, hi := keySpan(p.key)
			nh, plen := m.resolvePort(i, p.port), int8(p.key&63)
			k, _ := slices.BinarySearch(m.bounds, uint64(lo))
			for ; k < nint && m.bounds[k] <= uint64(hi); k++ {
				m.nextSlab[k*nsw+i], m.winSlab[k*nsw+i] = nh, plen
			}
		}
	}

	// Materialize the covered intervals as atoms, moving their rows down
	// the slabs. Uncovered intervals (no switch has a route) are dropped:
	// they can never become reachable through a reroute flip.
	for k := range nint {
		row := m.winSlab[k*nsw : (k+1)*nsw]
		if slices.Max(row) < 0 {
			continue
		}
		j := len(m.atoms)
		copy(m.nextSlab[j*nsw:], m.nextSlab[k*nsw:(k+1)*nsw])
		copy(m.winSlab[j*nsw:], row)
		m.atoms = append(m.atoms, atom{lo: uint32(m.bounds[k]), hi: uint32(m.bounds[k+1] - 1)})
		m.next = append(m.next, m.nextSlab[j*nsw:(j+1)*nsw])
		m.win = append(m.win, m.winSlab[j*nsw:(j+1)*nsw])
	}
	return m
}

// addPrefix is NewModel's route-table visitor.
func (m *Model) addPrefix(addr uint32, plen int, r *netsim.Route) {
	m.pfxs = append(m.pfxs, pfx{key: pfxKey(addr, plen), port: r.Egress()})
}

// installed reports whether switch si had addr/plen installed when the
// tables were read.
func (m *Model) installed(si int, addr uint32, plen int) bool {
	_, ok := slices.BinarySearchFunc(m.pfxs[m.pfxAt[si]:m.pfxAt[si+1]], pfxKey(addr, plen),
		func(p pfx, key uint64) int { return cmp.Compare(p.key, key) })
	return ok
}

// resolvePort maps an egress port at switch index si to a next-hop value.
func (m *Model) resolvePort(si, port int) int32 {
	if nh, ok := m.portPeer[si][port]; ok {
		return nh
	}
	return nhDrop
}

// Atoms reports how many atoms the model tracks.
func (m *Model) Atoms() int { return len(m.atoms) }

// overlay computes the per-atom next-hop overrides a delta induces, plus
// the sorted list of dirty atom indices. A flip applies to an atom only
// when the flipped prefix is that atom's LPM winner at the flip's switch —
// flipping a /24 must not re-route traffic a longer /32 owns.
func (m *Model) overlay(d *Delta) (map[int64]int32, []int, error) {
	ov := make(map[int64]int32)
	dirtySet := make(map[int]bool)
	for _, fl := range d.Flips {
		si, ok := m.swIdx[fl.Switch]
		if !ok {
			return nil, nil, fmt.Errorf("verify: unknown switch %q", fl.Switch)
		}
		if fl.Plen < 0 || fl.Plen > 32 {
			return nil, nil, fmt.Errorf("verify: invalid prefix length %d", fl.Plen)
		}
		if !m.installed(si, fl.Addr, fl.Plen) {
			return nil, nil, fmt.Errorf("verify: prefix %s/%d not installed at %s (model predates it)",
				ipStr(fl.Addr), fl.Plen, fl.Switch)
		}
		lo, hi := span(fl.Addr, fl.Plen)
		k := sort.Search(len(m.atoms), func(k int) bool { return m.atoms[k].hi >= lo })
		for ; k < len(m.atoms) && m.atoms[k].lo <= hi; k++ {
			if int(m.win[k][si]) != fl.Plen {
				continue
			}
			ov[m.cell(k, si)] = m.resolvePort(si, fl.Port)
			dirtySet[k] = true
		}
	}
	dirty := make([]int, 0, len(dirtySet))
	for k := range dirtySet {
		dirty = append(dirty, k)
	}
	sort.Ints(dirty)
	return ov, dirty, nil
}

func (m *Model) cell(atomIdx, swIdx int) int64 {
	return int64(atomIdx)*int64(len(m.switches)) + int64(swIdx)
}

// Check evaluates the post-commit state of d without applying it: every
// dirty atom is re-walked from all ingress switches for forwarding cycles
// and blackholes. The model is unchanged.
func (m *Model) Check(d *Delta) (*Verdict, error) {
	ov, dirty, err := m.overlay(d)
	if err != nil {
		return nil, err
	}
	return m.walkAtoms(dirty, ov), nil
}

// Commit applies d to the model unconditionally — callers gate on Check,
// and Audit walks the committed state.
func (m *Model) Commit(d *Delta) error {
	ov, dirty, err := m.overlay(d)
	if err != nil {
		return err
	}
	for _, k := range dirty {
		for si := range m.switches {
			if v, ok := ov[m.cell(k, si)]; ok {
				m.next[k][si] = v
			}
		}
	}
	return nil
}

// Audit re-walks every atom of the committed state from scratch — the
// non-incremental ground truth, used by experiments and the fancy-fleet
// demo to prove the end state is loop- and blackhole-free.
func (m *Model) Audit() *Verdict {
	all := make([]int, len(m.atoms))
	for k := range all {
		all[k] = k
	}
	return m.walkAtoms(all, nil)
}

func (m *Model) walkAtoms(dirty []int, ov map[int64]int32) *Verdict {
	v := &Verdict{Atoms: len(dirty)}
	for _, k := range dirty {
		loop, holes := m.walkAtom(k, ov)
		if len(loop)+len(holes) > 0 {
			v.Unsafe = append(v.Unsafe, AtomVerdict{
				Lo: m.atoms[k].lo, Hi: m.atoms[k].hi, Loop: loop, Holes: holes,
			})
		}
	}
	return v
}

// Walk states for one atom's colored traversal.
const (
	stUnvisited int8 = iota
	stOnPath
	stDelivers
	stLoops
	stDrops
)

// walkAtom chases the atom's next-hop function from every switch, coloring
// as it goes so each switch is resolved once. Loop lists the switches on a
// forwarding cycle; holes lists every ingress switch whose traffic dies in
// a drop. Both sorted.
func (m *Model) walkAtom(k int, ov map[int64]int32) (loop, holes []string) {
	nextOf := func(si int) int32 {
		if ov != nil {
			if v, ok := ov[m.cell(k, si)]; ok {
				return v
			}
		}
		return m.next[k][si]
	}
	state := make([]int8, len(m.switches))
	var path []int
	inLoop := make([]bool, len(m.switches))
	for s := range m.switches {
		if state[s] != stUnvisited {
			continue
		}
		path = path[:0]
		cur := s
		var term int8
		for {
			if state[cur] == stOnPath {
				// New cycle: members are the path suffix from cur.
				for j := len(path) - 1; j >= 0; j-- {
					inLoop[path[j]] = true
					if path[j] == cur {
						break
					}
				}
				term = stLoops
				break
			}
			if state[cur] != stUnvisited {
				term = state[cur] // resolved by an earlier walk
				break
			}
			state[cur] = stOnPath
			path = append(path, cur)
			nh := nextOf(cur)
			if nh == nhDeliver {
				term = stDelivers
				break
			}
			if nh == nhDrop {
				term = stDrops
				break
			}
			cur = int(nh)
		}
		for _, p := range path {
			state[p] = term
		}
	}
	for si, sw := range m.switches {
		if inLoop[si] {
			loop = append(loop, sw)
		}
		if state[si] == stDrops {
			holes = append(holes, sw)
		}
	}
	return loop, holes
}

// AtomVerdict describes one unsafe atom: the address interval, the switches
// forming a forwarding cycle, and the ingress switches whose traffic
// blackholes.
type AtomVerdict struct {
	Lo, Hi uint32
	Loop   []string
	Holes  []string
}

// Verdict is the result of one check: how many atoms were re-walked and
// which of them are unsafe in the evaluated state. The canonical String
// form is what the fleet attaches to rejection events and what the oracle
// property test byte-compares.
type Verdict struct {
	Atoms  int
	Unsafe []AtomVerdict
}

// Safe reports whether the evaluated state is loop- and blackhole-free on
// every checked atom.
func (v *Verdict) Safe() bool { return len(v.Unsafe) == 0 }

// Loops counts unsafe atoms with a forwarding cycle.
func (v *Verdict) Loops() int {
	n := 0
	for _, a := range v.Unsafe {
		if len(a.Loop) > 0 {
			n++
		}
	}
	return n
}

// Blackholes counts unsafe atoms with at least one blackholed ingress.
func (v *Verdict) Blackholes() int {
	n := 0
	for _, a := range v.Unsafe {
		if len(a.Holes) > 0 {
			n++
		}
	}
	return n
}

func (v *Verdict) String() string {
	if v.Safe() {
		return fmt.Sprintf("safe: %d atom(s) checked", v.Atoms)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unsafe (%d atom(s) checked):", v.Atoms)
	for _, a := range v.Unsafe {
		fmt.Fprintf(&b, " atom %s-%s", ipStr(a.Lo), ipStr(a.Hi))
		if len(a.Loop) > 0 {
			fmt.Fprintf(&b, " loop[%s]", strings.Join(a.Loop, " "))
		}
		if len(a.Holes) > 0 {
			fmt.Fprintf(&b, " hole[%s]", strings.Join(a.Holes, " "))
		}
		b.WriteByte(';')
	}
	return b.String()
}

func ipStr(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", a>>24, a>>16&0xff, a>>8&0xff, a&0xff)
}
