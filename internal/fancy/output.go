package fancy

// This file implements FANcY's output data structures (§4.3): a 1-bit
// register array flagging dedicated entries with detected mismatches, and a
// two-register Bloom filter storing the hash paths flagged by the tree.

// FlagArray is the 1-bit register array with one flag per dedicated counter.
type FlagArray struct {
	bits []uint64
	n    int
	set  int
}

// NewFlagArray allocates an array for n dedicated entries.
func NewFlagArray(n int) *FlagArray {
	return &FlagArray{bits: make([]uint64, (n+63)/64), n: n}
}

// Set flags entry slot i.
func (f *FlagArray) Set(i int) {
	if i < 0 || i >= f.n {
		return
	}
	w, b := i/64, uint(i%64)
	if f.bits[w]&(1<<b) == 0 {
		f.bits[w] |= 1 << b
		f.set++
	}
}

// Get reports whether slot i is flagged.
func (f *FlagArray) Get(i int) bool {
	if i < 0 || i >= f.n {
		return false
	}
	return f.bits[i/64]&(1<<uint(i%64)) != 0
}

// Clear resets slot i.
func (f *FlagArray) Clear(i int) {
	if i < 0 || i >= f.n || !f.Get(i) {
		return
	}
	f.bits[i/64] &^= 1 << uint(i%64)
	f.set--
}

// Count reports the number of flagged slots.
func (f *FlagArray) Count() int { return f.set }

// Len reports the array capacity.
func (f *FlagArray) Len() int { return f.n }

// PathBloom is the two-register Bloom filter that records flagged hash
// paths. Each register is a 1-bit array; a path sets (and is queried
// against) one bit per register through independent hashes — the layout of
// the Tofino prototype's rerouting structure (Appendix B.2). The registers
// are zeroed on the first Insert: most monitored ports never flag a path,
// and a never-inserted filter answers every query without them.
type PathBloom struct {
	reg0, reg1 []uint64
	cells      int
	inserted   int
}

// NewPathBloom builds a filter with the given cells per register.
func NewPathBloom(cells int) *PathBloom {
	if cells < 64 {
		cells = 64
	}
	return &PathBloom{cells: cells}
}

// hashPath folds a hash path into two independent cell indices.
func (b *PathBloom) hashPath(path []uint16) (uint32, uint32) {
	const prime = 1099511628211
	var h0, h1 uint64 = 14695981039346656037, 0x9e3779b97f4a7c15
	for _, p := range path {
		h0 = (h0 ^ uint64(p)) * prime
		h1 ^= uint64(p) + 0x9e3779b97f4a7c15 + h1<<6 + h1>>2
	}
	return uint32(h0 % uint64(b.cells)), uint32(h1 % uint64(b.cells))
}

// Insert records path as flagged.
func (b *PathBloom) Insert(path []uint16) {
	if b.reg0 == nil {
		words := (b.cells + 63) / 64
		b.reg0, b.reg1 = make([]uint64, words), make([]uint64, words)
	}
	i0, i1 := b.hashPath(path)
	b.reg0[i0/64] |= 1 << (i0 % 64)
	b.reg1[i1/64] |= 1 << (i1 % 64)
	b.inserted++
}

// Contains reports whether path may have been flagged (Bloom semantics:
// false positives possible, false negatives impossible).
func (b *PathBloom) Contains(path []uint16) bool {
	if b.inserted == 0 {
		return false
	}
	i0, i1 := b.hashPath(path)
	return b.reg0[i0/64]&(1<<(i0%64)) != 0 && b.reg1[i1/64]&(1<<(i1%64)) != 0
}

// Reset clears the filter.
func (b *PathBloom) Reset() {
	for i := range b.reg0 {
		b.reg0[i] = 0
		b.reg1[i] = 0
	}
	b.inserted = 0
}
