// Fixture for the poolsafe analyzer: ownership of objects handed out by a
// Get/Put pool. (netsim's packets are released through pkt.release() and
// lent to callbacks; those rules have their own fixture, ../netsim.)
package pool

// Buf is the pooled object.
type Buf struct {
	Data []byte
	N    int
}

// BufPool is the pool shape the analyzer recognizes (type name ends in
// "Pool", Get()/Put(x) methods).
type BufPool struct {
	free []*Buf
}

// Get hands out a buffer; the caller owns it until Put.
func (p *BufPool) Get() *Buf {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &Buf{}
}

// Put returns ownership to the pool.
func (p *BufPool) Put(b *Buf) {
	p.free = append(p.free, b)
}

var sink []*Buf

// UseAfterPut writes a field of a buffer already returned to the pool
// (true positive: use-after-Put).
func UseAfterPut(p *BufPool) {
	b := p.Get()
	b.N = 1
	p.Put(b)
	b.Data = nil
}

// DoublePutBranch returns the buffer on the conditional path and then
// unconditionally, so one path releases twice (true positive: double-Put).
func DoublePutBranch(p *BufPool, cond bool) {
	b := p.Get()
	if cond {
		p.Put(b)
	}
	p.Put(b)
}

// DoublePutLoop releases inside a loop; the back edge carries the released
// fact into the next iteration (true positive: double-Put).
func DoublePutLoop(p *BufPool, n int) {
	b := p.Get()
	for i := 0; i < n; i++ {
		p.Put(b)
	}
}

// PutAfterStore parks the buffer in a package-level slice and then returns
// it to the pool, leaving sink pointing at recycled memory (true positive:
// Put after escape).
func PutAfterStore(p *BufPool) {
	b := p.Get()
	sink = append(sink, b)
	p.Put(b)
}

// PutAfterCapture hands the buffer to a closure that outlives the
// statement, then returns it to the pool (true positive: Put after escape).
func PutAfterCapture(p *BufPool, defer_ func(func())) {
	b := p.Get()
	defer_(func() { b.N++ })
	p.Put(b)
}

// BranchSeparated releases on one path and keeps using the buffer on the
// other; the paths never mix (true negative).
func BranchSeparated(p *BufPool, cond bool) int {
	b := p.Get()
	if cond {
		p.Put(b)
		return 0
	}
	b.N = 2
	return b.N
}

// CopyOutThenPut copies the needed value out before releasing, the idiom
// Sim.Run uses for pooled events (true negative).
func CopyOutThenPut(p *BufPool) int {
	b := p.Get()
	n := b.N
	p.Put(b)
	return n
}

// ReacquireKills re-Gets into the same variable after a Put; the fresh
// definition ends the released state (true negative).
func ReacquireKills(p *BufPool) {
	b := p.Get()
	p.Put(b)
	b = p.Get()
	b.N = 3
	p.Put(b)
}

// DeferredPut schedules the release for function exit, after every use
// (true negative).
func DeferredPut(p *BufPool) int {
	b := p.Get()
	defer p.Put(b)
	b.N = 4
	return b.N
}

// ImmediateClosure invokes the capturing literal on the spot, so nothing
// outlives the statement (true negative).
func ImmediateClosure(p *BufPool) {
	b := p.Get()
	func() { b.N++ }()
	p.Put(b)
}

// SuppressedUseAfterPut demonstrates a justified suppression.
func SuppressedUseAfterPut(p *BufPool) {
	b := p.Get()
	p.Put(b)
	b.N = 5 //lint:allow poolsafe fixture exercises the recycled-write path on purpose
}
