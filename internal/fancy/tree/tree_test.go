package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Params{Width: 190, Depth: 3, Split: 2, Pipelined: true}
	if err := good.Validate(); err != nil {
		t.Errorf("paper config rejected: %v", err)
	}
	bad := []Params{
		{Width: 1, Depth: 3, Split: 2},
		{Width: 190, Depth: 0, Split: 2},
		{Width: 190, Depth: 3, Split: 0},
		{Width: 257, Depth: 3, Split: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestNodesFormula(t *testing.T) {
	cases := []struct {
		p    Params
		want int
	}{
		// Pipelined, k>1: (k^d − 1)/(k − 1).
		{Params{Width: 4, Depth: 3, Split: 2, Pipelined: true}, 7},
		{Params{Width: 4, Depth: 3, Split: 3, Pipelined: true}, 13},
		{Params{Width: 4, Depth: 4, Split: 2, Pipelined: true}, 15},
		// Pipelined, k=1: d.
		{Params{Width: 4, Depth: 3, Split: 1, Pipelined: true}, 3},
		// Non-pipelined: k^(d−1).
		{Params{Width: 4, Depth: 3, Split: 2}, 4},
		{Params{Width: 4, Depth: 4, Split: 3}, 27},
		// Non-pipelined, k=1: 1 (the Tofino prototype reuses one node).
		{Params{Width: 190, Depth: 3, Split: 1}, 1},
	}
	for _, c := range cases {
		if got := c.p.Nodes(); got != c.want {
			t.Errorf("Nodes(%+v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestMemoryMatchesTofinoAppendix(t *testing.T) {
	// Appendix B.2: width-190 non-pipelined split-1 tree needs
	// 32·2·190 = 12160 bits per port for the counters.
	p := Params{Width: 190, Depth: 3, Split: 1}
	if got := p.MemoryBits(); got != 12160 {
		t.Errorf("MemoryBits = %d, want 12160", got)
	}
}

func TestHashPathsAndCollisions(t *testing.T) {
	p := Params{Width: 190, Depth: 3, Split: 2, Pipelined: true}
	m := p.HashPaths()
	if m != 190*190*190 {
		t.Errorf("HashPaths = %v, want 190^3", m)
	}
	if got := p.CollisionProb(0); got != 0 {
		t.Errorf("CollisionProb(0) = %v, want 0", got)
	}
	// With 100 simultaneous faulty entries over 190^3 paths, per-entry
	// collision probability is ≈100/190^3 ≈ 1.5e-5.
	prob := p.CollisionProb(100)
	if prob < 1e-5 || prob > 2e-5 {
		t.Errorf("CollisionProb(100) = %v, want ≈1.5e-5", prob)
	}
	// Paper §5: for 250K entries and 100 failures, ≈1.1 average false
	// positives at 100% loss. Eq. 2 gives E ≈ 3.6 for x=250K, same order.
	e := p.ExpectedCollisions(100, 250_000)
	if e < 1 || e > 6 {
		t.Errorf("ExpectedCollisions = %v, want a few (same order as paper's ≈1.1)", e)
	}
}

func TestMaxParallelPaths(t *testing.T) {
	if got := (Params{Width: 4, Depth: 3, Split: 2}).MaxParallelPaths(); got != 4 {
		t.Errorf("k=2,d=3: MaxParallelPaths = %d, want 4", got)
	}
	if got := (Params{Width: 4, Depth: 3, Split: 1}).MaxParallelPaths(); got != 1 {
		t.Errorf("k=1: MaxParallelPaths = %d, want 1", got)
	}
}

func TestHasherDeterminism(t *testing.T) {
	p := Params{Width: 190, Depth: 3, Split: 2}
	a := NewHasher(p, 42)
	b := NewHasher(p, 42)
	for e := uint64(0); e < 100; e++ {
		pa := a.Path(e, nil)
		pb := b.Path(e, nil)
		if len(pa) != 3 || len(pb) != 3 {
			t.Fatalf("path length = %d, want 3", len(pa))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("hashers disagree for entry %d", e)
			}
			if int(pa[i]) >= p.Width {
				t.Fatalf("index %d out of range", pa[i])
			}
		}
	}
}

// unfactoredMix is the hasher's mix as it was before NewHasher folded the
// seed and level once: FNV-1a over all 24 bytes of (seed, level, entry) on
// every call, then the splitmix64 avalanche.
func unfactoredMix(seed, level, entry uint64) uint64 {
	x := uint64(14695981039346656037)
	for _, v := range [3]uint64{seed, level, entry} {
		for i := 0; i < 8; i++ {
			x ^= (v >> (8 * i)) & 0xff
			x *= 1099511628211
		}
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TestHasherMatchesUnfactoredMix holds Index and Path to the unfactored
// mix over random seeds and entries (32- and 64-bit), widths 2–256 and
// depths 1–5, and over levels 0–7 of a depth-8 tree, and pins three paths
// of the paper's tree shape, so a change to the hash fails here before it
// moves any golden.
func TestHasherMatchesUnfactoredMix(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		p := Params{Width: 2 + rng.Intn(255), Depth: 1 + rng.Intn(5), Split: 2}
		seed, entry := rng.Uint64(), rng.Uint64()
		if i%2 == 0 {
			entry >>= 32 // a 32-bit entry ID: fold's short path
		}
		if i%3 == 0 {
			seed >>= 32
		}
		h := NewHasher(p, seed)
		path := h.Path(entry, nil)
		if len(path) != p.Depth {
			t.Fatalf("Path has %d levels, want %d", len(path), p.Depth)
		}
		for l := 0; l < p.Depth; l++ {
			want := uint16(unfactoredMix(seed, uint64(l), entry) % uint64(p.Width))
			if got := h.Index(entry, l); got != want || path[l] != want {
				t.Fatalf("seed %#x width %d entry %#x level %d: Index %d, Path %d, unfactored %d",
					seed, p.Width, entry, l, got, path[l], want)
			}
		}
	}
	h := NewHasher(Params{Width: 256, Depth: 8, Split: 1}, 3)
	for l := 0; l < 8; l++ {
		if got, want := h.Index(99, l), uint16(unfactoredMix(3, uint64(l), 99)%256); got != want {
			t.Fatalf("depth 8, level %d: Index %d, unfactored %d", l, got, want)
		}
	}

	pinned := NewHasher(Params{Width: 190, Depth: 3, Split: 2}, 13)
	for _, c := range []struct {
		entry uint64
		path  [3]uint16
	}{
		{1, [3]uint16{81, 161, 58}},
		{0xdeadbeef, [3]uint16{176, 158, 35}},
		{1 << 63, [3]uint16{51, 112, 124}},
	} {
		if got := pinned.Path(c.entry, nil); [3]uint16(got) != c.path {
			t.Errorf("seed 13, width 190: Path(%#x) = %v, want %v", c.entry, got, c.path)
		}
	}
}

func TestHasherSeedsDiffer(t *testing.T) {
	p := Params{Width: 190, Depth: 3, Split: 2}
	a := NewHasher(p, 1)
	b := NewHasher(p, 2)
	same := 0
	for e := uint64(0); e < 1000; e++ {
		if a.Index(e, 0) == b.Index(e, 0) {
			same++
		}
	}
	// Expected collisions ≈ 1000/190 ≈ 5; anything near 1000 means the
	// seed is ignored.
	if same > 50 {
		t.Errorf("seeds produce %d/1000 equal indices; seed not mixed in", same)
	}
}

func TestHasherLevelIndependence(t *testing.T) {
	p := Params{Width: 190, Depth: 3, Split: 2}
	h := NewHasher(p, 7)
	same := 0
	for e := uint64(0); e < 1000; e++ {
		if h.Index(e, 0) == h.Index(e, 1) {
			same++
		}
	}
	if same > 50 {
		t.Errorf("levels produce %d/1000 equal indices; level not mixed in", same)
	}
}

func TestHasherUniformity(t *testing.T) {
	p := Params{Width: 16, Depth: 1, Split: 1}
	h := NewHasher(p, 99)
	counts := make([]int, 16)
	const n = 16000
	for e := uint64(0); e < n; e++ {
		counts[h.Index(e, 0)]++
	}
	// Chi-squared against uniform: each bin expects 1000. With 15 dof the
	// 99.9th percentile is ≈37.7; allow generous slack.
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - 1000
		chi2 += d * d / 1000
	}
	if chi2 > 60 {
		t.Errorf("chi2 = %.1f, hash badly non-uniform: %v", chi2, counts)
	}
}

// Property: the empirical collision rate between random entry pairs matches
// the Bloom-filter analysis within an order of magnitude.
func TestPropertyCollisionRateMatchesFormula(t *testing.T) {
	p := Params{Width: 16, Depth: 2, Split: 2, Pipelined: true} // m = 256
	h := NewHasher(p, 5)
	rng := rand.New(rand.NewSource(6))
	const trials = 20000
	collisions := 0
	for i := 0; i < trials; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a == b {
			continue
		}
		pa := h.Path(a, nil)
		pb := h.Path(b, nil)
		if pa[0] == pb[0] && pa[1] == pb[1] {
			collisions++
		}
	}
	got := float64(collisions) / trials
	want := p.CollisionProb(1) // n=1 faulty entry
	if got < want/3 || got > want*3 {
		t.Errorf("empirical collision rate %.5f vs formula %.5f", got, want)
	}
}

// Property: Nodes() is always ≥ depth for pipelined trees and the memory
// formula is consistent with it.
func TestPropertyNodeMemoryConsistency(t *testing.T) {
	f := func(w, d, k uint8, pipelined bool) bool {
		p := Params{Width: int(w%200) + 2, Depth: int(d%5) + 1, Split: int(k%4) + 1, Pipelined: pipelined}
		n := p.Nodes()
		if n < 1 {
			return false
		}
		if p.Pipelined && n < p.Depth {
			return false
		}
		return p.MemoryBits() == 2*32*p.Width*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: collision probability is monotone in the number of faulty
// entries and bounded by 1.
func TestPropertyCollisionMonotone(t *testing.T) {
	p := Params{Width: 32, Depth: 2, Split: 2, Pipelined: true}
	prev := 0.0
	for n := 0; n < 5000; n += 100 {
		prob := p.CollisionProb(n)
		if prob < prev || prob > 1 || math.IsNaN(prob) {
			t.Fatalf("CollisionProb(%d) = %v not monotone in [0,1]", n, prob)
		}
		prev = prob
	}
}

func BenchmarkHashPath(b *testing.B) {
	p := Params{Width: 190, Depth: 3, Split: 2}
	h := NewHasher(p, 1)
	buf := make([]uint16, 0, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = h.Path(uint64(i), buf[:0])
	}
}
