// Package hh is the in-dataplane heavy-hitter stage: a pipelined, d-stage
// HashPipe sketch (Sivaraman et al., "Heavy-Hitter Detection Entirely in
// the Data Plane") whose insertion policy is PRECISION-style probabilistic
// recirculation (Ben Basat et al.): instead of HashPipe's always-evict
// first stage, a packet that misses every stage is admitted into the
// minimum-count slot with probability ~1/(min+1), approximated in hardware
// by a power-of-two mask over a register-resident LCG. This keeps
// elephants sticky (a established heavy slot is overwritten with
// vanishingly small probability) while still letting newly-hot prefixes
// climb in O(count) packets, and it needs exactly one recirculation per
// admission instead of HashPipe's per-stage eviction chain.
//
// The Sketch type in this package is the control-plane model: it advances
// the same per-stage hash placement and the same LCG stream as the
// register-level program in internal/dataplane (see BuildHeavyHitter), so
// the two stay packet-for-packet equivalent — the equivalence is asserted
// by a test. The switch agent consumes the sketch's periodic top-k reports
// (report.go) and drives dedicated-counter promotion/demotion through the
// allocator (alloc.go).
package hh

import (
	"cmp"
	"math/bits"
	"slices"

	"fancy/internal/netsim"
)

// Params sizes the sketch. The zero value is usable: withDefaults yields a
// 3-stage, 32-slot-per-stage table, the smallest configuration at which
// the PRECISION admission policy separates a Zipf head from its tail.
type Params struct {
	Stages int    // pipeline depth d (default 3)
	Width  int    // slots per stage (default 32)
	Seed   uint64 // hash + LCG seed; distinct seeds give independent sketches
}

func (p Params) withDefaults() Params {
	if p.Stages <= 0 {
		p.Stages = 3
	}
	if p.Width <= 0 {
		p.Width = 32
	}
	return p
}

// PortSeed derives a per-port sketch seed from a base seed so that every
// monitored port runs an independently-hashed sketch.
func PortSeed(seed uint64, port int) uint64 {
	return splitmix(seed ^ (uint64(port+1) * 0x9e3779b97f4a7c15))
}

// splitmix is the SplitMix64 finalizer — the avalanche we use both to
// derive per-stage hash functions and to spread keys over slots.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StageIndex is the slot index of key in the given stage. It is exported
// because the register-level program in internal/dataplane must place keys
// in exactly the same cells as this model.
func StageIndex(seed uint64, stage, width int, key uint32) int {
	h := splitmix(seed ^ (uint64(stage+1) << 32) ^ uint64(key))
	return int(h % uint64(width))
}

// LCGStep advances the admission RNG one step. The constants are the
// classic numerical-recipes 32-bit LCG — one multiply and one add, exactly
// what a single SALU slot can compute per packet.
func LCGStep(x uint32) uint32 {
	return x*1664525 + 1013904223
}

// RandInit is the admission RNG's initial register value for a seed.
func RandInit(seed uint64) uint32 {
	return uint32(splitmix(seed ^ 0x5bf03635))
}

// EntryCount is one reported (prefix, count) pair.
type EntryCount struct {
	Entry netsim.EntryID
	Count uint32
}

// Sketch is the control-plane model of the heavy-hitter stage. Not safe
// for concurrent use; in the simulator it lives on the event-loop thread.
type Sketch struct {
	p Params
	// keys stores entry+1 so that the all-zero reset state cannot collide
	// with netsim.EntryID 0, which is a valid prefix.
	keys   [][]uint32
	counts [][]uint32
	rnd    uint32

	packets uint64 // observations since the last Reset
	recircs uint64 // admissions (each costs one recirculation) since Reset

	TotalPackets uint64
	TotalRecircs uint64
}

// NewSketch builds an empty sketch for p (zero fields defaulted).
func NewSketch(p Params) *Sketch {
	p = p.withDefaults()
	sk := &Sketch{p: p, rnd: RandInit(p.Seed)}
	// The 2 × Stages rows share one array: one allocation, not one per row.
	rows, cells := make([][]uint32, 2*p.Stages), make([]uint32, 2*p.Stages*p.Width)
	for i := range rows {
		rows[i] = cells[i*p.Width : (i+1)*p.Width]
	}
	sk.keys, sk.counts = rows[:p.Stages], rows[p.Stages:]
	return sk
}

// Params returns the sketch's (defaulted) sizing.
func (sk *Sketch) Params() Params { return sk.p }

// draw returns the current RNG value and advances the stream — the same
// old-value-out semantics as a register RegOp, so the register program and
// this model consume identical draws.
func (sk *Sketch) draw() uint32 {
	r := sk.rnd
	sk.rnd = LCGStep(sk.rnd)
	return r
}

// Observe runs one packet through the sketch. It reports whether the
// packet was admitted into a slot, which in hardware costs one
// recirculated clone. The policy, per PRECISION:
//
//   - match in any stage: increment that slot, done (no RNG draw);
//   - full miss: find the minimum-count slot across stages, admit with
//     probability 2^-len(min) — the power-of-two approximation of
//     1/(min+1) — taking over the slot with count min+1.
//
// An empty slot has count 0, mask 0, and is therefore always claimed.
func (sk *Sketch) Observe(entry netsim.EntryID) bool {
	sk.packets++
	sk.TotalPackets++
	key := uint32(entry) + 1
	minStage, minIdx := 0, 0
	var min uint32
	for i := 0; i < sk.p.Stages; i++ {
		idx := StageIndex(sk.p.Seed, i, sk.p.Width, uint32(entry))
		if sk.keys[i][idx] == key {
			sk.counts[i][idx]++
			return false
		}
		if c := sk.counts[i][idx]; i == 0 || c < min {
			min, minStage, minIdx = c, i, idx
		}
	}
	j := bits.Len32(min)
	var mask uint32
	if j >= 32 {
		mask = ^uint32(0)
	} else {
		mask = 1<<uint(j) - 1
	}
	if sk.draw()&mask != 0 {
		return false
	}
	sk.keys[minStage][minIdx] = key
	sk.counts[minStage][minIdx] = min + 1
	sk.recircs++
	sk.TotalRecircs++
	return true
}

// Window returns the observation and admission counts since the last
// Reset.
func (sk *Sketch) Window() (packets, recircs uint64) {
	return sk.packets, sk.recircs
}

// TopK returns the k heaviest tracked prefixes, ordered by descending
// count then ascending entry — the canonical report order. k <= 0 or k
// larger than the table returns everything tracked.
func (sk *Sketch) TopK(k int) []EntryCount { return sk.AppendTopK(nil, k) }

// AppendTopK appends TopK(k) to dst and returns the extended slice. dst's
// spare capacity is used as scratch for every tracked slot, so a buffer
// reused across windows stops allocating once it has held a full table.
func (sk *Sketch) AppendTopK(dst []EntryCount, k int) []EntryCount {
	base := len(dst)
	for i := range sk.keys {
		for j, key := range sk.keys[i] {
			if key == 0 {
				continue
			}
			dst = append(dst, EntryCount{Entry: netsim.EntryID(key - 1), Count: sk.counts[i][j]})
		}
	}
	// The same entry can briefly occupy slots in two stages (admitted
	// twice after losing a slot); merge counts so reports never carry
	// duplicate prefixes. After the merge entries are unique, so the
	// canonical order is total and any sort yields the same result.
	all := dst[base:]
	slices.SortFunc(all, func(a, b EntryCount) int { return cmp.Compare(a.Entry, b.Entry) })
	merged := all[:0]
	for _, ec := range all {
		if n := len(merged); n > 0 && merged[n-1].Entry == ec.Entry {
			merged[n-1].Count += ec.Count
			continue
		}
		merged = append(merged, ec)
	}
	slices.SortFunc(merged, func(a, b EntryCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Entry, b.Entry))
	})
	if k > 0 && len(merged) > k {
		merged = merged[:k]
	}
	return dst[:base+len(merged)]
}

// Reset clears every slot and the window counters, starting a fresh
// measurement epoch. The RNG stream continues — hardware does not reseed
// its register between control-plane reads.
func (sk *Sketch) Reset() {
	for i := range sk.keys {
		for j := range sk.keys[i] {
			sk.keys[i][j] = 0
			sk.counts[i][j] = 0
		}
	}
	sk.packets, sk.recircs = 0, 0
}

// Slot exposes one cell (key+1 encoding, 0 = empty) for the equivalence
// test against the register-level program.
func (sk *Sketch) Slot(stage, idx int) (key, count uint32) {
	return sk.keys[stage][idx], sk.counts[stage][idx]
}
