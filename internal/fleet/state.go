package fleet

// The correlator's durable state and its canonical frame.
//
// Everything a correlator crash must not lose lives in corrState, once:
// Fleet embeds it as the live state, encode walks it into the byte frame
// that is a checkpoint (and the value of a replicated log entry), and
// decodeState walks a frame back. Given a destination it builds the state
// restoreState grafts onto the live fleet on restart or takeover; given none
// it runs every check and builds nothing, which is how a replica validates
// each frame it is sent. A durable field is therefore named in its
// declaration, in alloc if it is a map, in encode and in decodeState, and
// nowhere else but the correlator code that really reads or writes it.
//
// The frame follows the internal/codec rules plus its own: maps and sets are
// emitted in ascending key order and must decode strictly ascending, so
// identical states produce identical bytes whatever the map iteration order
// (same-seed transcript determinism depends on it) and every accepted frame
// re-encodes to itself.

import (
	"bytes"
	"cmp"
	"slices"

	"fancy/internal/codec"
	"fancy/internal/fancy"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/verify"
)

// corrState is the correlator's durable state.
type corrState struct {
	savedAt sim.Time // when the frame was taken; stamped by checkpoint

	// Aggregate counters.
	Alarms        int // deduped alarms across all links
	Suppressed    int // alarms discarded (congestion/flap/restart)
	Localizations int
	Reroutes      int

	links map[string]*linkState // by "from->to" key

	restartsSeen    map[string]int      // per-switch restart counter at last read
	restartObserved map[string]sim.Time // when an advance was last observed
	epochCur        map[string]uint8    // per-switch detector epoch, from report stamps
	epochPrev       map[string]uint8
	rerouteSeen     map[string]bool // "sw|port|entry" reroutes already recorded

	// seq is the management server's per-client sequencing state — stamped
	// from the server by checkpoint, handed back to it by restoreState — so
	// a restarted correlator keeps deduplicating reports the crashed
	// incarnation already consumed.
	seq map[string]mgmt.SeqState

	// verifyLog and verifyHeld persist the verified-commit gate: decided
	// commits (with their committed delta frames, replayed into a fresh
	// model on restore) and flips parked on the hold-and-retry list. Empty
	// without Config.Verify.
	verifyLog  []VerifyDecision
	verifyHeld []*heldReroute
}

// linkRecord is the durable part of one directed link's correlator record.
type linkRecord struct {
	// Current incident (between first alarm and verdict).
	incidentStart  sim.Time
	evidence       []fancy.Event
	seen           map[string]bool // dedup keys of alarms already counted
	verdictPending bool

	localized   bool
	localizedAt sim.Time
	affected    map[netsim.EntryID]bool // flagged dedicated entries
	treePaths   int                     // flagged hash paths (not invertible)

	downTimes  []sim.Time // recent link-down reports, for flap detection
	flapping   bool
	alarms     int // deduped alarms, lifetime
	suppressed int // alarms discarded by the correlator, lifetime

	lastHealth Health
}

// alloc makes every nil map writable. New calls it on the zero state and
// restoreState on a decoded one: the decoder leaves empty maps nil.
func (s *corrState) alloc() {
	ensure(&s.restartsSeen)
	ensure(&s.restartObserved)
	ensure(&s.epochCur)
	ensure(&s.epochPrev)
	ensure(&s.rerouteSeen)
	for _, ls := range s.links {
		ensure(&ls.seen)
		ensure(&ls.affected)
	}
}

func ensure[K comparable, V any](m *map[K]V) {
	if *m == nil {
		*m = make(map[K]V)
	}
}

// sortedKeys returns a map's keys in ascending order (canonical encoding).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// encodeMap emits a string-keyed map in ascending key order; a set passes a
// val that writes nothing. The keys are sorted on *keys, a scratch stack the
// caller keeps between frames: a nested map's val pushes its keys above
// these and pops them before returning, so sorting allocates nothing once the
// stack has grown to hold a frame's keys.
func encodeMap[V any](w *codec.Writer, keys *[]string, m map[string]V, val func(V)) {
	stack := *keys
	base := len(stack)
	for k := range m {
		stack = append(stack, k)
	}
	slices.Sort(stack[base:])
	*keys = stack
	w.Uvarint(uint64(len(m)))
	for _, k := range stack[base:] {
		w.Str(k)
		val(m[k])
	}
	*keys = (*keys)[:base]
}

// ascending returns v, failing r unless v is strictly above prev, the
// element before it: every set and sorted list in the frame decodes through
// here (every map through key), so duplicates and shuffles are non-canonical
// everywhere.
func ascending[T cmp.Ordered](r *codec.Reader, i int, prev, v T) T {
	if i > 0 && v <= prev {
		r.Fail()
	}
	return v
}

// walker is decodeState's reader: build is false when the walk only checks.
type walker struct {
	*codec.Reader
	build bool
}

// key reads a map key that must sort strictly above prev, the key before
// it. It stays bytes, so a walk that only checks converts no string.
func (w walker) key(i int, prev []byte) []byte {
	k := w.Bytes()
	if i > 0 && bytes.Compare(k, prev) <= 0 {
		w.Fail()
	}
	return k
}

// str reads a string, converting it only when the walk builds.
func (w walker) str() string {
	if b := w.Bytes(); w.build {
		return string(b)
	}
	return ""
}

// decodeMap reads what encodeMap wrote, into *m when the walk builds (empty
// decodes nil).
func decodeMap[V any](w walker, m *map[string]V, val func() V) {
	n := w.Count()
	if w.build && n > 0 {
		*m = make(map[string]V, n)
	}
	var k []byte
	for i := 0; i < n && !w.Failed(); i++ {
		k = w.key(i, k)
		if v := val(); w.build {
			(*m)[string(k)] = v
		}
	}
}

// decodeList reads a count-prefixed list element by element, onto *l when
// the walk builds (empty decodes nil).
func decodeList[T any](w walker, l *[]T, elem func(i int) T) {
	n := w.Count()
	if w.build && n > 0 {
		*l = make([]T, 0, n)
	}
	for i := 0; i < n && !w.Failed(); i++ {
		if v := elem(i); w.build {
			*l = append(*l, v)
		}
	}
}

// A set is a map whose values carry nothing.
func noValue(bool) {}
func member() bool { return true }

func wtime(w *codec.Writer, t sim.Time) { w.Varint(int64(t)) }
func rtime(r *codec.Reader) sim.Time    { return sim.Time(r.Varint()) }

// encode appends the state's canonical frame to w, sorting map keys on the
// scratch stack *keys (see encodeMap).
func (s *corrState) encode(w *codec.Writer, keys *[]string) {
	wtime(w, s.savedAt)
	w.Varint(int64(s.Alarms))
	w.Varint(int64(s.Suppressed))
	w.Varint(int64(s.Localizations))
	w.Varint(int64(s.Reroutes))

	encodeMap(w, keys, s.links, func(ls *linkState) { ls.encode(w, keys) })
	encodeMap(w, keys, s.restartsSeen, func(v int) { w.Varint(int64(v)) })
	encodeMap(w, keys, s.restartObserved, func(t sim.Time) { wtime(w, t) })
	encodeMap(w, keys, s.epochCur, w.Byte)
	encodeMap(w, keys, s.epochPrev, w.Byte)
	encodeMap(w, keys, s.rerouteSeen, noValue)
	encodeMap(w, keys, s.seq, func(st mgmt.SeqState) {
		w.Uvarint(st.Contig)
		w.Uvarint(uint64(len(st.Above)))
		for _, a := range st.Above {
			w.Uvarint(a)
		}
	})

	w.Uvarint(uint64(len(s.verifyLog)))
	for _, d := range s.verifyLog {
		w.Str(d.Key)
		w.Byte(d.Outcome)
		w.Bytes(d.Frame)
	}
	w.Uvarint(uint64(len(s.verifyHeld)))
	for _, h := range s.verifyHeld {
		w.Str(h.link)
		w.Str(h.key)
		w.Uvarint(uint64(h.entry))
		w.Varint(int64(h.retries))
	}
}

func (l *linkRecord) encode(w *codec.Writer, keys *[]string) {
	w.Bool(l.localized)
	wtime(w, l.localizedAt)
	w.Uvarint(uint64(len(l.affected)))
	for _, e := range sortedKeys(l.affected) {
		w.Uvarint(uint64(e))
	}
	w.Varint(int64(l.treePaths))
	w.Varint(int64(l.alarms))
	w.Varint(int64(l.suppressed))
	w.Bool(l.flapping)
	w.Uvarint(uint64(len(l.downTimes)))
	for _, t := range l.downTimes {
		wtime(w, t)
	}
	w.Bool(l.verdictPending)
	wtime(w, l.incidentStart)
	encodeMap(w, keys, l.seen, noValue)
	w.Uvarint(uint64(len(l.evidence)))
	for _, ev := range l.evidence {
		wtime(w, ev.Time)
		w.Varint(int64(ev.Port))
		w.Byte(byte(ev.Kind))
		w.Uvarint(uint64(ev.Entry))
		w.Uvarint(uint64(len(ev.Path)))
		for _, p := range ev.Path {
			w.Uvarint(uint64(p))
		}
		w.Uvarint(ev.Diff)
	}
	w.Byte(byte(l.lastHealth))
}

// decodeState walks a state frame, rejecting anything malformed,
// non-canonical or followed by trailing bytes. Into a non-nil s it builds the
// state: a link's record is decoded into s.links's zero record of its key, or
// into a new linkState made for a key s.links lacks (restoreState hands it the
// live links, so a restore builds no link of the topology). With s nil it
// makes the same reads and checks and builds nothing, so
// validating a frame allocates only what verify.DecodeDelta does for a
// decision-log frame. Byte strings in a built state (decision-log frames)
// alias the input, which is immutable by convention.
func decodeState(frame []byte, s *corrState) error {
	w := walker{codec.NewReader(frame), s != nil}
	if !w.build {
		s = new(corrState) // the checked scalars land here and go nowhere
	}
	s.savedAt = rtime(w.Reader)
	s.Alarms = int(w.Varint())
	s.Suppressed = int(w.Varint())
	s.Localizations = int(w.Varint())
	s.Reroutes = int(w.Varint())

	// A checked link record is read into rec.
	n := w.Count()
	if w.build && n > 0 && s.links == nil {
		s.links = make(map[string]*linkState, n)
	}
	var rec linkRecord
	var k []byte
	for i := 0; i < n && !w.Failed(); i++ {
		k = w.key(i, k)
		if !w.build {
			rec.decode(w)
			continue
		}
		ls := s.links[string(k)]
		if ls == nil {
			ls = new(linkState)
			s.links[string(k)] = ls
		}
		ls.linkRecord.decode(w)
	}
	decodeMap(w, &s.restartsSeen, func() int { return int(w.Varint()) })
	decodeMap(w, &s.restartObserved, func() sim.Time { return rtime(w.Reader) })
	decodeMap(w, &s.epochCur, w.Byte)
	decodeMap(w, &s.epochPrev, w.Byte)
	decodeMap(w, &s.rerouteSeen, member)
	decodeMap(w, &s.seq, func() mgmt.SeqState {
		st := mgmt.SeqState{Contig: w.Uvarint()}
		var a uint64
		decodeList(w, &st.Above, func(i int) uint64 {
			a = ascending(w.Reader, i, a, w.Uvarint())
			return a
		})
		return st
	})

	decodeList(w, &s.verifyLog, func(int) VerifyDecision {
		d := VerifyDecision{Key: w.str(), Outcome: w.Byte(), Frame: w.Bytes()}
		if d.Outcome > verifyOutcomeMax {
			w.Fail()
		}
		// A frame must itself be a canonical delta; a forged or corrupted
		// frame would otherwise be replayed into the verifier model after a
		// failover.
		if len(d.Frame) > 0 {
			if _, err := verify.DecodeDelta(d.Frame); err != nil {
				w.Fail()
			}
		}
		return d
	})
	decodeList(w, &s.verifyHeld, func(int) *heldReroute {
		link, key := w.str(), w.str()
		entry, retries := netsim.EntryID(w.U32()), int(w.Varint())
		if !w.build {
			return nil
		}
		return &heldReroute{link: link, key: key, entry: entry, retries: retries}
	})
	if !w.Done() {
		return errWire
	}
	return nil
}

func (l *linkRecord) decode(w walker) {
	l.localized = w.Bool()
	l.localizedAt = rtime(w.Reader)
	n := w.Count()
	if w.build && n > 0 {
		l.affected = make(map[netsim.EntryID]bool, n)
	}
	for i, e := 0, netsim.EntryID(0); i < n && !w.Failed(); i++ {
		if e = ascending(w.Reader, i, e, netsim.EntryID(w.U32())); w.build {
			l.affected[e] = true
		}
	}
	l.treePaths = int(w.Varint())
	l.alarms = int(w.Varint())
	l.suppressed = int(w.Varint())
	l.flapping = w.Bool()
	decodeList(w, &l.downTimes, func(int) sim.Time { return rtime(w.Reader) })
	l.verdictPending = w.Bool()
	l.incidentStart = rtime(w.Reader)
	decodeMap(w, &l.seen, member)
	decodeList(w, &l.evidence, func(int) fancy.Event {
		ev := fancy.Event{
			Time:  rtime(w.Reader),
			Port:  int(w.Varint()),
			Kind:  fancy.EventKind(w.Byte()),
			Entry: netsim.EntryID(w.U32()),
		}
		decodeList(w, &ev.Path, func(int) uint16 { return w.U16() })
		ev.Diff = w.Uvarint()
		return ev
	})
	l.lastHealth = Health(w.Byte())
}
