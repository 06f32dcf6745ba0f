package fancy

import (
	"math/rand"
	"testing"

	"fancy/internal/fancy/tree"
	"fancy/internal/netsim"
)

// pathIndex is the reading of a report that each consumer once kept for
// itself (the reroute app, the experiment drivers, the trace replay
// example): the entries not in a static dedicated slot, keyed by their
// full tree hash path on the monitored port.
type pathIndex struct {
	port   int
	byPath map[string][]netsim.EntryID
}

func newPathIndex(det *Detector, port int, entries []netsim.EntryID) *pathIndex {
	x := &pathIndex{port: port, byPath: make(map[string][]netsim.EntryID)}
	for _, e := range entries {
		if _, dedicated := det.DedicatedSlot(e); !dedicated {
			k := pathKeyTest(det.EntryPath(port, e))
			x.byPath[k] = append(x.byPath[k], e)
		}
	}
	return x
}

func (x *pathIndex) implicates(ev Event, entry netsim.EntryID) bool {
	if ev.Port != x.port {
		return false
	}
	switch ev.Kind {
	case EventDedicated:
		return ev.Entry == entry
	case EventTreeLeaf:
		for _, e := range x.byPath[pathKeyTest(ev.Path)] {
			if e == entry {
				return true
			}
		}
	case EventUniform:
		return true
	}
	return false
}

// TestImplicatesMatchesPathIndex holds Detector.Implicates to the path
// index it replaced, over random entry sets on pipelined and non-pipelined
// trees, for every event kind and for ports the detector does not monitor.
// The one intended difference is a promoted entry: the index, built from
// the static slots alone, still filed it under its tree path, while the
// tree stops counting an entry once it holds a dynamic slot, so Implicates
// leaves it out of a leaf report.
func TestImplicatesMatchesPathIndex(t *testing.T) {
	for _, pipelined := range []bool{true, false} {
		rng := rand.New(rand.NewSource(47))
		// A narrow tree, so that random entries share leaf paths.
		cfg := Config{
			HighPriority: []netsim.EntryID{3, 17, 40},
			DynamicSlots: 3,
			Tree:         tree.Params{Width: 4, Depth: 3, Split: 2, Pipelined: pipelined},
			TreeSeed:     11,
		}
		tb := newTestbed(t, cfg, 1)
		det := tb.det
		promoted := map[netsim.EntryID]bool{}
		for _, e := range []netsim.EntryID{5, 22, 61} {
			if _, err := det.Promote(1, e); err != nil {
				t.Fatal(err)
			}
			promoted[e] = true
		}

		var hits, promotedMisses int
		for trial := 0; trial < 20; trial++ {
			seen := map[netsim.EntryID]bool{}
			var entries []netsim.EntryID
			for len(entries) < 24 {
				e := netsim.EntryID(rng.Intn(80))
				if !seen[e] {
					seen[e] = true
					entries = append(entries, e)
				}
			}
			ref := newPathIndex(det, 1, entries)

			var events []Event
			for _, kind := range []EventKind{EventTreeZoomStart, EventUniform, EventLinkDown, EventLinkUp} {
				events = append(events, Event{Kind: kind, Port: 1})
			}
			for _, e := range entries {
				events = append(events,
					Event{Kind: EventDedicated, Port: 1, Entry: e},
					Event{Kind: EventTreeLeaf, Port: 1, Path: det.EntryPath(1, e)})
			}
			for i := 0; i < 8; i++ {
				path := make([]uint16, 1+rng.Intn(cfg.Tree.Depth))
				for l := range path {
					path[l] = uint16(rng.Intn(cfg.Tree.Width))
				}
				events = append(events, Event{Kind: EventTreeLeaf, Port: 1, Path: path})
			}
			// The same reports on the unmonitored host port and beyond the
			// switch's ports name nothing.
			for _, ev := range events {
				for _, port := range []int{0, 99} {
					ev.Port = port
					events = append(events, ev)
				}
			}

			for _, ev := range events {
				for _, e := range entries {
					got, want := det.Implicates(ev, e), ref.implicates(ev, e)
					if ev.Kind == EventTreeLeaf && promoted[e] && want {
						want = false
						promotedMisses++
					}
					if got != want {
						t.Fatalf("pipelined=%v: Implicates(%v, %d) = %v, path index says %v",
							pipelined, ev, e, got, want)
					}
					if got && ev.Kind == EventTreeLeaf {
						hits++
					}
				}
			}
		}
		if hits == 0 || promotedMisses == 0 {
			t.Fatalf("pipelined=%v: %d leaf hits, %d promoted entries left out; the draw exercises neither",
				pipelined, hits, promotedMisses)
		}
	}
}
