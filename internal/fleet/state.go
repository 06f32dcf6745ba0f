package fleet

// The correlator's durable state and its canonical frame.
//
// Everything a correlator crash must not lose lives in corrState, once:
// Fleet embeds it as the live state, encode walks it into the byte frame
// that is a checkpoint (and the value of a replicated log entry), and
// decodeState produces the same type back — a throw-away instance when a
// follower validates a frame it was sent, the one restoreState grafts onto
// the live fleet on restart or takeover. A durable field is therefore named
// in its declaration, in alloc if it is a map, in encode and in decodeState,
// and nowhere else but the correlator code that really reads or writes it.
//
// The frame follows the internal/codec rules plus its own: maps and sets are
// emitted in ascending key order and must decode strictly ascending, so
// identical states produce identical bytes whatever the map iteration order
// (same-seed transcript determinism depends on it) and every accepted frame
// re-encodes to itself.

import (
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
// restoreState on a decoded one: the decoder leaves empty maps nil, so
// validating a frame allocates no more than the frame holds.
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
// val that writes nothing.
func encodeMap[V any](w *codec.Writer, m map[string]V, val func(V)) {
	w.Uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.Str(k)
		val(m[k])
	}
}

// ascending returns v, failing r unless v is strictly above prev, the
// element before it: every map, set and sorted list in the frame decodes
// through here, so duplicates and shuffles are non-canonical everywhere.
func ascending[T cmp.Ordered](r *codec.Reader, i int, prev, v T) T {
	if i > 0 && v <= prev {
		r.Fail()
	}
	return v
}

// decodeMap reads what encodeMap wrote. Empty decodes nil.
func decodeMap[V any](r *codec.Reader, val func() V) map[string]V {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	k := ""
	for i := 0; i < n && !r.Failed(); i++ {
		k = ascending(r, i, k, r.Str())
		m[k] = val()
	}
	return m
}

// A set is a map whose values carry nothing.
func noValue(bool) {}
func member() bool { return true }

func wtime(w *codec.Writer, t sim.Time) { w.Varint(int64(t)) }
func rtime(r *codec.Reader) sim.Time    { return sim.Time(r.Varint()) }

// encode appends the state's canonical frame to w.
func (s *corrState) encode(w *codec.Writer) {
	wtime(w, s.savedAt)
	w.Varint(int64(s.Alarms))
	w.Varint(int64(s.Suppressed))
	w.Varint(int64(s.Localizations))
	w.Varint(int64(s.Reroutes))

	encodeMap(w, s.links, func(ls *linkState) { ls.encode(w) })
	encodeMap(w, s.restartsSeen, func(v int) { w.Varint(int64(v)) })
	encodeMap(w, s.restartObserved, func(t sim.Time) { wtime(w, t) })
	encodeMap(w, s.epochCur, w.Byte)
	encodeMap(w, s.epochPrev, w.Byte)
	encodeMap(w, s.rerouteSeen, noValue)
	encodeMap(w, s.seq, func(st mgmt.SeqState) {
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

func (l *linkRecord) encode(w *codec.Writer) {
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
	encodeMap(w, l.seen, noValue)
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

// decodeState parses a state frame, rejecting anything malformed,
// non-canonical or followed by trailing bytes. Byte strings in the result
// (decision-log frames) alias the input, which is immutable by convention.
func decodeState(frame []byte) (*corrState, error) {
	r := codec.NewReader(frame)
	s := &corrState{
		savedAt:       rtime(r),
		Alarms:        int(r.Varint()),
		Suppressed:    int(r.Varint()),
		Localizations: int(r.Varint()),
		Reroutes:      int(r.Varint()),
	}

	// One slab holds every link record: a follower validates each frame it
	// is sent, and most links in most frames are idle.
	if n := r.Count(); n > 0 {
		s.links = make(map[string]*linkState, n)
		slab := make([]linkState, n)
		k := ""
		for i := 0; i < n && !r.Failed(); i++ {
			k = ascending(r, i, k, r.Str())
			slab[i].decode(r)
			s.links[k] = &slab[i]
		}
	}
	s.restartsSeen = decodeMap(r, func() int { return int(r.Varint()) })
	s.restartObserved = decodeMap(r, func() sim.Time { return rtime(r) })
	s.epochCur = decodeMap(r, r.Byte)
	s.epochPrev = decodeMap(r, r.Byte)
	s.rerouteSeen = decodeMap(r, member)
	s.seq = decodeMap(r, func() mgmt.SeqState {
		st := mgmt.SeqState{Contig: r.Uvarint()}
		if n := r.Count(); n > 0 {
			st.Above = make([]uint64, 0, n)
			for i, a := 0, uint64(0); i < n && !r.Failed(); i++ {
				a = ascending(r, i, a, r.Uvarint())
				st.Above = append(st.Above, a)
			}
		}
		return st
	})

	for i, n := 0, r.Count(); i < n && !r.Failed(); i++ {
		d := VerifyDecision{Key: r.Str(), Outcome: r.Byte(), Frame: r.Bytes()}
		if d.Outcome > verifyOutcomeMax {
			r.Fail()
		}
		// A frame must itself be a canonical delta; a forged or corrupted
		// frame would otherwise be replayed into the verifier model after a
		// failover.
		if len(d.Frame) > 0 {
			if _, err := verify.DecodeDelta(d.Frame); err != nil {
				r.Fail()
			}
		}
		s.verifyLog = append(s.verifyLog, d)
	}
	for i, n := 0, r.Count(); i < n && !r.Failed(); i++ {
		s.verifyHeld = append(s.verifyHeld, &heldReroute{
			link:    r.Str(),
			key:     r.Str(),
			entry:   netsim.EntryID(r.U32()),
			retries: int(r.Varint()),
		})
	}
	if !r.Done() {
		return nil, errWire
	}
	return s, nil
}

func (l *linkRecord) decode(r *codec.Reader) {
	l.localized = r.Bool()
	l.localizedAt = rtime(r)
	if n := r.Count(); n > 0 {
		l.affected = make(map[netsim.EntryID]bool, n)
		for i, e := 0, netsim.EntryID(0); i < n && !r.Failed(); i++ {
			e = ascending(r, i, e, netsim.EntryID(r.U32()))
			l.affected[e] = true
		}
	}
	l.treePaths = int(r.Varint())
	l.alarms = int(r.Varint())
	l.suppressed = int(r.Varint())
	l.flapping = r.Bool()
	if n := r.Count(); n > 0 {
		l.downTimes = make([]sim.Time, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			l.downTimes = append(l.downTimes, rtime(r))
		}
	}
	l.verdictPending = r.Bool()
	l.incidentStart = rtime(r)
	l.seen = decodeMap(r, member)
	if n := r.Count(); n > 0 {
		l.evidence = make([]fancy.Event, 0, n)
		for i := 0; i < n && !r.Failed(); i++ {
			ev := fancy.Event{
				Time:  rtime(r),
				Port:  int(r.Varint()),
				Kind:  fancy.EventKind(r.Byte()),
				Entry: netsim.EntryID(r.U32()),
			}
			if p := r.Count(); p > 0 {
				ev.Path = make([]uint16, 0, p)
				for j := 0; j < p && !r.Failed(); j++ {
					ev.Path = append(ev.Path, r.U16())
				}
			}
			ev.Diff = r.Uvarint()
			l.evidence = append(l.evidence, ev)
		}
	}
	l.lastHealth = Health(r.Byte())
}
