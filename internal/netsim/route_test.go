package netsim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refRoute is one prefix of the reference table, with the handle the trie
// returned for its latest insert and the port that insert stored.
type refRoute struct {
	addr   uint32
	plen   int
	port   int
	handle *Route
}

// refTable is the oracle: a linear list of prefixes, longest match by
// brute force.
type refTable []refRoute

func refMask(plen int) uint32 { return uint32(0xffffffff) << (32 - plen) }

func (r *refTable) insert(addr uint32, plen, port int, h *Route) {
	addr &= refMask(plen)
	for i := range *r {
		if p := &(*r)[i]; p.addr == addr && p.plen == plen {
			p.port, p.handle = port, h
			return
		}
	}
	*r = append(*r, refRoute{addr, plen, port, h})
}

func (r refTable) lookup(addr uint32) *Route {
	best, bestLen := (*Route)(nil), -1
	for _, p := range r {
		if p.plen > bestLen && addr&refMask(p.plen) == p.addr {
			best, bestLen = p.handle, p.plen
		}
	}
	return best
}

// probes returns the addresses worth asking about: every prefix's first
// and last address and their outside neighbours, the ends of the space,
// and extra.
func (r refTable) probes(extra ...uint32) []uint32 {
	out := append([]uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff}, extra...)
	for _, p := range r {
		lo, hi := p.addr, p.addr|^refMask(p.plen)
		out = append(out, lo, hi, lo-1, hi+1)
	}
	return out
}

// checkTable holds rt to the oracle: Len, Walk's order and handles, every
// probe's longest match (by handle identity, so a detached handle shows),
// and every live handle's contents.
func checkTable(t *testing.T, rt *RouteTable, ref refTable, probes []uint32) {
	t.Helper()
	if rt.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", rt.Len(), len(ref))
	}
	want := slices.Clone(ref)
	slices.SortFunc(want, func(a, b refRoute) int {
		return cmp.Or(cmp.Compare(a.addr, b.addr), cmp.Compare(a.plen, b.plen))
	})
	var got []refRoute
	rt.Walk(func(addr uint32, plen int, r *Route) {
		got = append(got, refRoute{addr: addr, plen: plen, port: r.Port, handle: r})
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Walk visited\n %v\nwant (ascending addr, then plen)\n %v", got, want)
	}
	for _, a := range probes {
		if g, w := rt.Lookup(a), ref.lookup(a); g != w {
			t.Fatalf("Lookup(%#08x) = %p %+v, want %p %+v", a, g, g, w, w)
		}
	}
	for _, p := range ref {
		if p.handle.Port != p.port {
			t.Fatalf("handle of %#08x/%d holds port %d, want %d", p.addr, p.plen, p.handle.Port, p.port)
		}
	}
}

// randomPrefix draws a prefix of any length 0–32. Half the time it keeps
// the bits of an earlier prefix (nested inside it, or an ancestor of it);
// one time in four it repeats an earlier prefix, with different host bits.
func randomPrefix(rng *rand.Rand, ref refTable) (uint32, int) {
	if len(ref) == 0 || rng.Intn(2) == 0 {
		return rng.Uint32(), rng.Intn(33)
	}
	p := ref[rng.Intn(len(ref))]
	addr := p.addr | rng.Uint32()&^refMask(p.plen)
	if rng.Intn(2) == 0 {
		return addr, p.plen
	}
	return addr, rng.Intn(33)
}

// TestRouteTableMatchesReference holds the compressed trie to a linear
// longest-prefix match over random prefix sets with every length, nested,
// duplicate and replaced prefixes, without Grow, with Grow for all of them
// and with Grow for half.
func TestRouteTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for set := 0; set < 300; set++ {
		n := 1 + rng.Intn(80)
		grow := []int{0, n, n / 2}[set%3]
		t.Run(fmt.Sprintf("set%d-n%d-grow%d", set, n, grow), func(t *testing.T) {
			var rt RouteTable
			rt.Grow(grow)
			var ref refTable
			var extra []uint32
			for i := 0; i < n; i++ {
				addr, plen := randomPrefix(rng, ref)
				h, err := rt.Insert(addr, plen, Route{Port: i, Backup: -1})
				if err != nil {
					t.Fatal(err)
				}
				ref.insert(addr, plen, i, h)
				extra = append(extra, addr, rng.Uint32())
				if i&(i+1) == 0 { // after inserts 1, 2, 4, 8, …
					checkTable(t, &rt, ref, ref.probes(extra...))
				}
			}
			checkTable(t, &rt, ref, ref.probes(extra...))

			// Handles stay live: a write through any of them, after every
			// insert above, is what the table holds.
			for i := range ref {
				ref[i].port += 1000
				ref[i].handle.Port = ref[i].port
				ref[i].handle.UseBackup = true
			}
			checkTable(t, &rt, ref, ref.probes(extra...))
			rt.Walk(func(addr uint32, plen int, r *Route) {
				if !r.UseBackup {
					t.Fatalf("%#08x/%d: the write through its handle is lost", addr, plen)
				}
			})
		})
	}
}

// FuzzRouteTable runs a byte-coded insert sequence (4 address bytes and one
// length byte per insert; lengths above 32 must be refused) against the
// linear reference, checking the table after every insert so that a lookup
// memoized before an insert is asked again after it.
func FuzzRouteTable(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 0, 0, 0, 0, 0, 10, 1, 2, 3, 32}, uint8(0))
	f.Add([]byte{10, 1, 0, 0, 16, 12, 0, 0, 0, 8, 10, 1, 0, 0, 16, 0, 0, 0, 0, 33}, uint8(4))
	f.Add([]byte{255, 255, 255, 255, 32, 128, 0, 0, 0, 1, 0, 0, 0, 0, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, grow uint8) {
		var rt RouteTable
		rt.Grow(int(grow))
		var ref refTable
		var extra []uint32
		for i := 0; len(ops) >= 5; i++ {
			addr, plen := binary.BigEndian.Uint32(ops), int(ops[4]%34)
			ops = ops[5:]
			extra = append(extra, addr)
			h, err := rt.Insert(addr, plen, Route{Port: i, Backup: -1})
			if plen > 32 {
				if err == nil {
					t.Fatalf("plen %d accepted", plen)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ref.insert(addr, plen, i, h)
			checkTable(t, &rt, ref, ref.probes(extra...))
		}
		checkTable(t, &rt, ref, ref.probes(extra...))
	})
}

// TestRouteLookupSeesLaterInsert: a memoized answer, hit or miss, is
// forgotten by the next insert — a longer covering prefix, a re-insert of
// the same prefix (whose fresh handle replaces the memoized one), and a
// default route over a memoized miss.
func TestRouteLookupSeesLaterInsert(t *testing.T) {
	var rt RouteTable
	host := IPv4(10, 1, 2, 3)
	r24, _ := rt.Insert(IPv4(10, 1, 2, 0), 24, Route{Port: 1, Backup: -1})
	for i := 0; i < 2; i++ { // the second lookup is answered by the memo
		if got := rt.Lookup(host); got != r24 {
			t.Fatalf("lookup %d: got %p, want the /24 %p", i, got, r24)
		}
	}
	r32, _ := rt.Insert(host, 32, Route{Port: 2, Backup: -1})
	if got := rt.Lookup(host); got != r32 {
		t.Fatalf("after inserting the /32: got %p %+v, want the /32 %p", got, got, r32)
	}
	if got := rt.Lookup(host + 1); got != r24 {
		t.Fatalf("a neighbour of the /32: got %p, want the /24 %p", got, r24)
	}
	again, _ := rt.Insert(IPv4(10, 1, 2, 0), 24, Route{Port: 3, Backup: -1})
	if got := rt.Lookup(host + 1); got != again || got.Port != 3 {
		t.Fatalf("after re-inserting the /24: got %p %+v, want the fresh handle %p", got, got, again)
	}

	var empty RouteTable
	for i := 0; i < 2; i++ {
		if got := empty.Lookup(host); got != nil {
			t.Fatalf("empty table, lookup %d: got %+v, want nil", i, got)
		}
	}
	def, _ := empty.Insert(0, 0, Route{Port: 4, Backup: -1})
	if got := empty.Lookup(host); got != def {
		t.Fatalf("after inserting a /0 over a memoized miss: got %p, want %p", got, def)
	}
}

// TestRouteLookupDoesNotAllocate pins a lookup on a grid-sized table (144
// host /32s and 300 entry /24s), memo hits and misses alike.
func TestRouteLookupDoesNotAllocate(t *testing.T) {
	const hosts, entries = 144, 300
	var rt RouteTable
	rt.Grow(hosts + entries)
	for h := 0; h < hosts; h++ {
		rt.Insert(IPv4(172, 16, byte(h>>8), byte(h)), 32, Route{Port: h % 5, Backup: -1})
	}
	for e := 0; e < entries; e++ {
		rt.InsertEntry(EntryID(e), Route{Port: e % 5, Backup: -1})
	}
	i, misses := 0, 0
	lookups := func() {
		for k := 0; k < 64; k++ {
			i++
			if rt.Lookup(EntryAddr(EntryID(i*7%entries), byte(i))) == nil {
				misses++
			}
			if rt.Lookup(IPv4(172, 16, 0, byte(i%hosts))) == nil {
				misses++
			}
		}
	}
	if avg := testing.AllocsPerRun(100, lookups); avg != 0 {
		t.Errorf("128 lookups allocate %.1f objects, want 0", avg)
	}
	if misses != 0 {
		t.Errorf("%d lookups of installed prefixes missed", misses)
	}
}

// TestGrownTableInsertDoesNotAllocate pins Grow's promise on a grid-sized
// table: after Grow(n), n inserts (host /32s, entry /24s, a default route
// and some re-inserts) allocate nothing.
func TestGrownTableInsertDoesNotAllocate(t *testing.T) {
	const hosts, entries = 144, 300
	const n = hosts + entries + 1 + 10
	const runs = 20
	tables := make([]RouteTable, runs+1) // AllocsPerRun adds one warm-up call
	for i := range tables {
		tables[i].Grow(n)
	}
	next := 0
	fill := func() {
		rt := &tables[next]
		next++
		rt.Insert(0, 0, Route{Port: 0, Backup: -1})
		for h := 0; h < hosts; h++ {
			rt.Insert(IPv4(172, 16, byte(h>>8), byte(h)), 32, Route{Port: h % 5, Backup: -1})
		}
		for e := 0; e < entries; e++ {
			rt.InsertEntry(EntryID(e*7919%entries), Route{Port: e % 5, Backup: -1})
		}
		for e := 0; e < 10; e++ {
			rt.InsertEntry(EntryID(e), Route{Port: 9, Backup: -1})
		}
	}
	if avg := testing.AllocsPerRun(runs, fill); avg != 0 {
		t.Errorf("%d inserts into a table grown for them allocate %.1f objects, want 0", n, avg)
	}
	if got := tables[0].Len(); got != 1+hosts+entries {
		t.Errorf("Len = %d, want %d", got, 1+hosts+entries)
	}
}
