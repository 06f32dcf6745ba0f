package verify

import (
	"fmt"
	"sort"
)

// OracleCheck recomputes Check(d)'s verdict by brute force: a linear scan
// over every atom for delta applicability, then bounded hop-by-hop path
// enumeration from every ingress switch — no coloring, no binary search,
// no shared state with the incremental walker. The property test asserts
// the two verdicts are byte-identical on randomized reroute batches.
func (m *Model) OracleCheck(d *Delta) (*Verdict, error) {
	type applied struct {
		si   int
		plen int
		nh   int32
	}
	var flips []applied
	for _, fl := range d.Flips {
		si, ok := m.swIdx[fl.Switch]
		if !ok {
			return nil, fmt.Errorf("verify: unknown switch %q", fl.Switch)
		}
		if fl.Plen < 0 || fl.Plen > 32 {
			return nil, fmt.Errorf("verify: invalid prefix length %d", fl.Plen)
		}
		if !m.installed(si, fl.Addr, fl.Plen) {
			return nil, fmt.Errorf("verify: prefix %s/%d not installed at %s (model predates it)",
				ipStr(fl.Addr), fl.Plen, fl.Switch)
		}
		flips = append(flips, applied{si, fl.Plen, m.resolvePort(si, fl.Port)})
	}
	// Which atoms does the delta touch? Same applicability rule, by scan.
	flipSpans := make([][2]uint32, len(d.Flips))
	for i, fl := range d.Flips {
		lo, hi := span(fl.Addr, fl.Plen)
		flipSpans[i] = [2]uint32{lo, hi}
	}
	v := &Verdict{}
	for k, a := range m.atoms {
		touched := false
		over := make(map[int]int32)
		for i, fl := range flips {
			if flipSpans[i][0] <= a.lo && a.hi <= flipSpans[i][1] &&
				int(m.win[k][fl.si]) == fl.plen {
				touched = true
				over[fl.si] = fl.nh
			}
		}
		if !touched {
			continue
		}
		v.Atoms++
		loop, holes := m.enumerateAtom(k, over)
		if len(loop)+len(holes) > 0 {
			v.Unsafe = append(v.Unsafe, AtomVerdict{Lo: a.lo, Hi: a.hi, Loop: loop, Holes: holes})
		}
	}
	return v, nil
}

// enumerateAtom walks up to V hops from each ingress switch independently.
// A walk still going after V hops is inside a cycle by pigeonhole; the
// cycle members are collected by walking it once more.
func (m *Model) enumerateAtom(k int, over map[int]int32) (loop, holes []string) {
	nextOf := func(si int) int32 {
		if v, ok := over[si]; ok {
			return v
		}
		return m.next[k][si]
	}
	V := len(m.switches)
	loopSet := make(map[int]bool)
	holeSet := make(map[int]bool)
	for s := 0; s < V; s++ {
		cur, outcome := s, 0 // 0 = still walking
		for i := 0; i < V; i++ {
			nh := nextOf(cur)
			if nh == nhDeliver {
				outcome = 1
				break
			}
			if nh == nhDrop {
				outcome = 2
				break
			}
			cur = int(nh)
		}
		switch outcome {
		case 1: // delivered
		case 2:
			holeSet[s] = true
		default: // cur is on a cycle after V hops
			start := cur
			for {
				loopSet[cur] = true
				cur = int(nextOf(cur))
				if cur == start {
					break
				}
			}
		}
	}
	for si := 0; si < V; si++ {
		if loopSet[si] {
			loop = append(loop, m.switches[si])
		}
		if holeSet[si] {
			holes = append(holes, m.switches[si])
		}
	}
	sort.Strings(loop)
	sort.Strings(holes)
	return loop, holes
}
