package verify

import (
	"fmt"
	"sort"

	"fancy/internal/codec"
	"fancy/internal/netsim"
)

// The delta frame is the replicated form of one gate decision: the fleet
// stores it in the consensus checkpoint so a restarted or failed-over
// correlator can replay committed flips into a fresh model. Same canonical
// rules as the fleet consensus codec: one version byte, minimal varints,
// strictly ascending flips, no trailing bytes — every accepted frame
// re-encodes to the identical bytes (FuzzDecodeVerifyDelta's property).

const deltaVersion = 1

// Flip is one prefix's egress change at one switch.
type Flip struct {
	Switch string
	Addr   uint32
	Plen   int
	Port   int
}

// EntryFlip builds the common case: diverting an EntryID's /24 under the
// EntryAddr addressing scheme.
func EntryFlip(sw string, e netsim.EntryID, port int) Flip {
	return Flip{Switch: sw, Addr: uint32(e) << 8, Plen: 24, Port: port}
}

// Delta is one reroute commit: a set of flips attributed to a localized
// link. NewDelta canonicalizes: flips sorted by (Switch, Addr, Plen), later
// duplicates of the same prefix winning.
type Delta struct {
	Link  string
	Flips []Flip
}

// NewDelta canonicalizes the flip set.
func NewDelta(link string, flips []Flip) *Delta {
	sort.SliceStable(flips, func(a, b int) bool {
		if flips[a].Switch != flips[b].Switch {
			return flips[a].Switch < flips[b].Switch
		}
		if flips[a].Addr != flips[b].Addr {
			return flips[a].Addr < flips[b].Addr
		}
		return flips[a].Plen < flips[b].Plen
	})
	out := flips[:0]
	for i, fl := range flips {
		if i+1 < len(flips) {
			n := flips[i+1]
			if n.Switch == fl.Switch && n.Addr == fl.Addr && n.Plen == fl.Plen {
				continue // superseded by the later flip
			}
		}
		out = append(out, fl)
	}
	return &Delta{Link: link, Flips: out}
}

// EncodeDelta emits the canonical frame.
func EncodeDelta(d *Delta) []byte {
	w := codec.Writer{B: []byte{deltaVersion}}
	w.Str(d.Link)
	w.Uvarint(uint64(len(d.Flips)))
	for _, fl := range d.Flips {
		w.Str(fl.Switch)
		w.Uvarint(uint64(fl.Addr))
		w.Byte(byte(fl.Plen))
		w.Varint(int64(fl.Port))
	}
	return w.B
}

// DecodeDelta parses a frame, rejecting every non-canonical encoding:
// wrong version, non-minimal varints, out-of-range fields, flips not in
// strictly ascending (Switch, Addr, Plen) order, or trailing bytes.
func DecodeDelta(data []byte) (*Delta, error) {
	r := codec.NewReader(data)
	if v := r.Byte(); v != deltaVersion {
		return nil, fmt.Errorf("verify: bad delta version %d", v)
	}
	d := &Delta{Link: r.Str()}
	n := r.Count()
	for i := 0; i < n && !r.Failed(); i++ {
		fl := Flip{Switch: r.Str(), Addr: r.U32(), Plen: int(r.Byte())}
		if fl.Plen > 32 {
			r.Fail()
			break
		}
		fl.Port = int(r.Varint())
		if i > 0 {
			p := d.Flips[i-1]
			if fl.Switch < p.Switch ||
				(fl.Switch == p.Switch && fl.Addr < p.Addr) ||
				(fl.Switch == p.Switch && fl.Addr == p.Addr && fl.Plen <= p.Plen) {
				r.Fail()
				break
			}
		}
		d.Flips = append(d.Flips, fl)
	}
	if !r.Done() {
		return nil, fmt.Errorf("verify: malformed delta frame")
	}
	return d, nil
}
