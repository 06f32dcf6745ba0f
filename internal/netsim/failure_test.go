package netsim

import (
	"math/rand"
	"testing"

	"fancy/internal/sim"
)

// mapFailure is the per-entry failure as it was before its entry set became
// a bitset: a map from entry to loss rate, filled by FailEntries with one
// rate for every listed entry. drop is the old Failure.Drop on what
// FailEntries builds (no uniform, flow or size loss).
type mapFailure struct {
	start    sim.Time
	perEntry map[EntryID]float64
	rng      *rand.Rand
	dropped  struct{ Data, Control uint64 }
}

func newMapFailure(seed int64, start sim.Time, rate float64, entries ...EntryID) *mapFailure {
	f := &mapFailure{start: start, perEntry: make(map[EntryID]float64), rng: rand.New(rand.NewSource(seed))}
	for _, e := range entries {
		f.perEntry[e] = rate
	}
	return f
}

func (f *mapFailure) drop(pkt *Packet, t sim.Time) bool {
	if t < f.start || pkt.Proto == ProtoFancy {
		return false
	}
	if p, ok := f.perEntry[pkt.Entry]; ok && f.roll(p) {
		f.dropped.Data++
		return true
	}
	return false
}

func (f *mapFailure) roll(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return f.rng.Float64() < p
}

// TestFailEntriesMatchesMapReference holds the bitset entry set to the map
// it replaced: with the same seed, every drop decision and both drop
// counters agree packet for packet, so the failure's random draws come in
// the same order too.
func TestFailEntriesMatchesMapReference(t *testing.T) {
	const near20 = 1 << 20
	edges := []EntryID{0, 1, 63, 64, 65, 127, 128, near20 - 1, near20, near20 + 1}
	for trial := 0; trial < 200; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		var entries []EntryID
		for n := r.Intn(12); len(entries) < n; {
			switch r.Intn(4) {
			case 0:
				entries = append(entries, edges[r.Intn(len(edges))])
			case 1:
				if len(entries) > 0 { // a duplicate
					entries = append(entries, entries[r.Intn(len(entries))])
				}
			case 2:
				entries = append(entries, EntryID(r.Intn(300)))
			default:
				entries = append(entries, EntryID(near20-200+r.Intn(400)))
			}
		}
		rate := []float64{0, 1, 0.3, 0.75, r.Float64()}[r.Intn(5)]
		start := sim.Time(r.Intn(100))
		seed := r.Int63()
		got, want := FailEntries(seed, start, rate, entries...), newMapFailure(seed, start, rate, entries...)

		for i := 0; i < 2000; i++ {
			pkt := &Packet{Proto: Proto(r.Intn(3)), Size: 100}
			switch r.Intn(5) {
			case 0:
				pkt.Entry = InvalidEntry
			case 1:
				pkt.Entry = edges[r.Intn(len(edges))]
			case 2:
				pkt.Entry = EntryID(r.Intn(near20 + 1000))
			default:
				if len(entries) > 0 {
					pkt.Entry = entries[r.Intn(len(entries))] + EntryID(r.Intn(3)) - 1
				}
			}
			at := sim.Time(r.Intn(200))
			if g, w := got.Drop(pkt, at), want.drop(pkt, at); g != w {
				t.Fatalf("trial %d (entries %v, rate %v), packet %d (entry %d, proto %d, t %v): Drop = %v, reference %v",
					trial, entries, rate, i, pkt.Entry, pkt.Proto, at, g, w)
			}
			if got.Dropped.Data != want.dropped.Data || got.Dropped.Control != want.dropped.Control {
				t.Fatalf("trial %d, packet %d: Dropped = %+v, reference %+v", trial, i, got.Dropped, want.dropped)
			}
		}
	}
}
