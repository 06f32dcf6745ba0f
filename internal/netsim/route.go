package netsim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Route is the forwarding decision for a prefix. Port is the primary egress
// port; Backup, when non-negative, is the alternate next hop a rerouting
// application can divert traffic to. UseBackup flips the active choice —
// this is the per-entry bit FANcY's fast-reroute case study sets when a
// counter is flagged (§6.1).
type Route struct {
	Port      int
	Backup    int
	UseBackup bool
}

// Egress returns the currently active egress port.
func (r *Route) Egress() int {
	if r.UseBackup && r.Backup >= 0 {
		return r.Backup
	}
	return r.Port
}

// RouteTable is a longest-prefix-match table over IPv4 addresses,
// implemented as a path-compressed binary trie held in one node slice. The
// zero value is an empty table.
//
// A node is either a prefix that holds a route or a branch point where two
// prefixes diverge, so n prefixes need at most 1+2n nodes (the root is the
// /0). Route handles are carved from per-table blocks, not allocated one
// by one; a handle stays valid, and its UseBackup bit live, across later
// inserts.
//
// In front of the trie sits a direct-mapped memo of recent lookups, keyed
// by the full address. Insert, the only mutation, clears it, so a memoized
// answer is always the one the trie would give. The memo is held inline,
// so a copied table never shares it with the original.
type RouteTable struct {
	nodes  []trieNode // nodes[0] is the root once the table is non-empty
	routes []Route    // the block new handles are carved from
	n      int
	memo   [memoSlots]memoSlot
	// memoized is set when a lookup fills a memo slot, so the inserts
	// that install a table before it forwards skip clearing an empty memo.
	memoized bool
}

// memoSlots is the memo's size: a power of two, and enough for the
// destinations a switch forwards to in the bundled topologies.
const memoSlots = 64

// memoSlot is one memoized lookup: the address and the route Lookup
// returned for it (nil when no prefix covers it).
type memoSlot struct {
	addr  uint32
	valid bool
	route *Route
}

// memoIndex picks addr's memo slot from the top bits of a multiplicative
// hash, which spreads addresses that differ only in a middle byte (the
// per-entry /24s) as well as those that differ in the last.
func memoIndex(addr uint32) uint32 { return addr * 0x9e3779b1 >> 26 }

// trieNode is one trie node; addr is masked to plen.
type trieNode struct {
	addr     uint32
	plen     uint8
	children [2]link
	route    *Route
}

// A link names a child node together with the shift that brings the
// address bit the child branches on down to bit 0: index<<5 | (31-plen)&31.
// A lookup so learns its next bit from the link it followed rather than
// from a load of the child's plen, which halves the dependent loads per
// level. (A /32 has no children, so its wrapped shift is never used.) The
// zero link is no child, since the root is nobody's child.
type link uint32

const rootLink link = 31 // node 0, which branches on bit 0

func linkTo(i int32, plen uint8) link { return link(i)<<5 | link(31-plen)&31 }

func (l link) node() int32 { return int32(l >> 5) }

// prefixMask is the netmask of a plen-bit prefix (0 for plen 0).
func prefixMask(plen uint8) uint32 { return ^uint32(0) << (32 - plen) }

// bitAt is bit i of addr, counting from the most significant (i < 32).
func bitAt(addr uint32, i uint8) int { return int(addr >> (31 - i) & 1) }

// Grow reserves room for n more prefixes: 1+2n trie nodes and one block of
// n route handles, so the next n inserts allocate nothing. Sizing a large
// table up front also keeps the node slice from passing through the
// intermediate arrays append would leave behind.
func (t *RouteTable) Grow(n int) {
	if n <= 0 {
		return
	}
	t.nodes = slices.Grow(t.nodes, 1+2*n)
	if cap(t.routes)-len(t.routes) < n {
		t.routes = make([]Route, 0, n)
	}
}

// newRoute carves a handle holding r from the current block, starting a
// new block when it is full. A full block is left as it is rather than
// regrown: growing would copy routes that no handle points to.
func (t *RouteTable) newRoute(r Route) *Route {
	if len(t.routes) == cap(t.routes) {
		t.routes = make([]Route, 0, max(4, 2*cap(t.routes)))
	}
	t.routes = append(t.routes, r)
	return &t.routes[len(t.routes)-1]
}

// addNode appends a node and returns a link to it.
func (t *RouteTable) addNode(nd trieNode) link {
	t.nodes = append(t.nodes, nd)
	return linkTo(int32(len(t.nodes)-1), nd.plen)
}

// Insert adds a route for addr/plen and returns it so the caller can keep a
// handle for rerouting. Host bits beyond plen are ignored. Inserting the
// same prefix twice replaces the route: the new one gets a fresh handle and
// the old handle is detached from the table.
func (t *RouteTable) Insert(addr uint32, plen int, route Route) (*Route, error) {
	if plen < 0 || plen > 32 {
		return nil, fmt.Errorf("netsim: invalid prefix length %d", plen)
	}
	pl := uint8(plen)
	addr &= prefixMask(pl)
	if len(t.nodes) == 0 {
		t.addNode(trieNode{})
	}
	// Invariant: node i's prefix covers addr/plen and is shorter, or equal.
	i := int32(0)
	for t.nodes[i].plen < pl {
		b := bitAt(addr, t.nodes[i].plen)
		c := t.nodes[i].children[b]
		if c == 0 {
			leaf := t.addNode(trieNode{addr: addr, plen: pl})
			t.nodes[i].children[b] = leaf
			i = leaf.node()
			break
		}
		ch := t.nodes[c.node()]
		common := min(uint8(bits.LeadingZeros32(addr^ch.addr)), pl, ch.plen)
		if common == ch.plen {
			i = c.node() // the child covers addr/plen: descend
			continue
		}
		// addr/plen and the child diverge (or addr/plen is the child's
		// ancestor): splice a node in at their common prefix.
		mid := trieNode{addr: addr & prefixMask(common), plen: common}
		mid.children[bitAt(ch.addr, common)] = c
		m := t.addNode(mid)
		t.nodes[i].children[b] = m
		i = m.node()
		if common == pl {
			break
		}
		leaf := t.addNode(trieNode{addr: addr, plen: pl})
		t.nodes[i].children[bitAt(addr, common)] = leaf
		i = leaf.node()
		break
	}
	nd := &t.nodes[i]
	if nd.route == nil {
		t.n++
	}
	nd.route = t.newRoute(route)
	if t.memoized {
		t.memo, t.memoized = [memoSlots]memoSlot{}, false
	}
	return nd.route, nil
}

// Lookup returns the longest-prefix-match route for addr, or nil if no
// prefix covers it, answering from the memo when it holds addr.
func (t *RouteTable) Lookup(addr uint32) *Route {
	s := &t.memo[memoIndex(addr)]
	if s.valid && s.addr == addr {
		return s.route
	}
	r := t.lookup(addr)
	*s = memoSlot{addr: addr, valid: true, route: r}
	t.memoized = true
	return r
}

// lookup walks the trie. Only nodes that hold a route are checked against
// addr: a node whose prefix does not cover addr has no descendant that
// does, so the first such route node ends the descent, and branch nodes
// above it need no check of their own.
func (t *RouteTable) lookup(addr uint32) *Route {
	nodes := t.nodes
	if len(nodes) == 0 {
		return nil
	}
	var best *Route
	for l := rootLink; ; {
		nd := &nodes[l.node()]
		if nd.route != nil {
			if addr&prefixMask(nd.plen) != nd.addr {
				break
			}
			best = nd.route
		}
		if l = nd.children[addr>>(l&31)&1]; l == 0 {
			break
		}
	}
	return best
}

// Len reports the number of installed prefixes.
func (t *RouteTable) Len() int { return t.n }

// Walk visits every installed prefix in ascending order of masked address,
// then of prefix length (so 10.0.0.0/8 before 10.0.0.0/16 before
// 10.1.0.0/16 before 12.0.0.0/8). The route pointer is the live handle, so
// callers observe the current UseBackup state.
func (t *RouteTable) Walk(fn func(addr uint32, plen int, route *Route)) {
	if len(t.nodes) > 0 {
		t.walk(0, fn)
	}
}

func (t *RouteTable) walk(i int32, fn func(uint32, int, *Route)) {
	nd := t.nodes[i]
	if nd.route != nil {
		fn(nd.addr, int(nd.plen), nd.route)
	}
	for _, c := range nd.children {
		if c != 0 {
			t.walk(c.node(), fn)
		}
	}
}

// InsertEntry installs a /24 route for an EntryID under the EntryAddr
// addressing scheme, the common case in experiments.
func (t *RouteTable) InsertEntry(e EntryID, route Route) *Route {
	r, err := t.Insert(uint32(e)<<8, 24, route)
	if err != nil {
		panic(err) // /24 is always valid
	}
	return r
}
