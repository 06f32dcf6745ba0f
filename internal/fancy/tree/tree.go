// Package tree implements FANcY's hash-based tree data structure (§4.2) and
// the analytical properties from Appendix A: node counts, memory sizing and
// collision (false positive) probability.
//
// A hash-based tree is a balanced k-ary tree whose nodes are fixed-size
// arrays of counters. A packet maps to one counter per level through a
// level-specific hash function; the list of counter indices from root to
// leaf is the packet's hash path. The tree generalizes a Bloom filter (a
// one-level tree) and is explored at runtime by the zooming algorithm,
// trading detection speed (d counting sessions) for memory.
package tree

import (
	"fmt"
	"math"
)

// Params are the three tree parameters plus the pipelining mode (§4.2,
// Appendix A.3). The paper's software evaluation uses Width 190, Depth 3,
// Split 2, pipelined; the Tofino prototype uses Split 1, non-pipelined.
type Params struct {
	Width int // counters per node (w)
	Depth int // levels, root to leaf (d)
	Split int // children per node (k)

	// Pipelined selects the zooming variant that explores several tree
	// levels simultaneously, storing every node; the non-pipelined variant
	// reuses one node's memory across levels (Appendix B.2).
	Pipelined bool
}

// Validate checks the parameters are usable.
func (p Params) Validate() error {
	if p.Width < 2 {
		return fmt.Errorf("tree: width %d < 2", p.Width)
	}
	if p.Width > 256 {
		// The 2-byte packet tag spends one byte on the counter index
		// (§5.3), bounding node width at 256.
		return fmt.Errorf("tree: width %d does not fit the one-byte tag counter index", p.Width)
	}
	if p.Depth < 1 {
		return fmt.Errorf("tree: depth %d < 1", p.Depth)
	}
	if p.Split < 1 {
		return fmt.Errorf("tree: split %d < 1", p.Split)
	}
	return nil
}

// Nodes computes the number of tree nodes that must be stored in switch
// memory (Appendix A.3, Eq. 3):
//
//	pipelined:          (k^d − 1)/(k − 1) for k > 1, else d
//	non-pipelined:      k^(d−1)
//	non-pipelined, k=1: 1
func (p Params) Nodes() int {
	k, d := p.Split, p.Depth
	if p.Pipelined {
		if k > 1 {
			return (ipow(k, d) - 1) / (k - 1)
		}
		return d
	}
	if k == 1 {
		return 1
	}
	return ipow(k, d-1)
}

// CounterBits is the per-counter register width used by the paper's memory
// accounting (32-bit counters).
const CounterBits = 32

// MemoryBits returns the total tree memory in bits across both session
// sides, excluding counting-protocol state: 2 · 32 · w · nodes (App. A.3).
func (p Params) MemoryBits() int {
	return 2 * CounterBits * p.Width * p.Nodes()
}

// HashPaths returns the number of distinct hash paths m = w^d, the
// effective "size" of the tree when viewed as a Bloom filter (App. A.2).
func (p Params) HashPaths() float64 {
	return math.Pow(float64(p.Width), float64(p.Depth))
}

// CollisionProb returns the probability that a non-faulty entry shares a
// hash path with at least one of n faulty entries (Appendix A.2, Eq. 1):
//
//	p = 1 − e^(−1/(m/n)) = 1 − e^(−n/m)
func (p Params) CollisionProb(nFaulty int) float64 {
	if nFaulty <= 0 {
		return 0
	}
	m := p.HashPaths()
	return 1 - math.Exp(-float64(nFaulty)/m)
}

// ExpectedCollisions returns the expected number of false positives when
// x entries cross the tree and nFaulty of them fail (Eq. 2: E = p · x).
func (p Params) ExpectedCollisions(nFaulty, x int) float64 {
	return p.CollisionProb(nFaulty) * float64(x)
}

// MaxParallelPaths is the number of hash paths the zooming algorithm can
// explore simultaneously: k^(d−1) in d counting sessions (§4.2).
func (p Params) MaxParallelPaths() int {
	return ipow(p.Split, p.Depth-1)
}

func ipow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Hasher maps entry keys to per-level counter indices. Both FANcY switches
// of a session never need to agree on hashes (the downstream learns indices
// from packet tags), but a deterministic seeded hash keeps experiments
// reproducible. H_level(entry) is 64-bit FNV-1a over the bytes of (seed,
// level, entry), low byte first, then a splitmix64 avalanche to decorrelate
// the low bits, reduced modulo the width.
type Hasher struct {
	width uint64
	// levels holds, per tree level, the hash state after the seed and the
	// level number: the part of every packet's hash that is the same for
	// all packets, folded once here instead of on every packet.
	levels []uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime4 = fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64)
)

// NewHasher builds a hasher for a tree of the given width and depth.
func NewHasher(p Params, seed uint64) *Hasher {
	h := &Hasher{width: uint64(p.Width), levels: make([]uint64, p.Depth)}
	for l := range h.levels {
		h.levels[l] = fold(fold(fnvOffset, seed), uint64(l))
	}
	return h
}

// Index returns H_level(entry) ∈ [0, width) for a level below the depth.
func (h *Hasher) Index(entry uint64, level int) uint16 {
	return uint16(avalanche(fold(h.levels[level], entry)) % h.width)
}

// Path appends the full hash path of entry (one index per level) to dst.
func (h *Hasher) Path(entry uint64, dst []uint16) []uint16 {
	for _, x := range h.levels {
		dst = append(dst, uint16(avalanche(fold(x, entry))%h.width))
	}
	return dst
}

// fold feeds the 8 bytes of v into FNV state x. A zero byte only
// multiplies the state by the prime, so when the high four bytes are zero
// (every 32-bit entry ID) their four steps are one multiplication by
// prime^4.
func fold(x, v uint64) uint64 {
	n := 8
	if v>>32 == 0 {
		n = 4
	}
	for i := 0; i < n; i++ {
		x ^= (v >> (8 * i)) & 0xff
		x *= fnvPrime
	}
	if n == 4 {
		x *= fnvPrime4
	}
	return x
}

// avalanche is the splitmix64 finalizer.
func avalanche(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
