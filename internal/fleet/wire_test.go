package fleet

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"fancy/internal/codec"
	"fancy/internal/fancy"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/verify"
)

// frameOf encodes a state the way Fleet.checkpoint does.
func frameOf(s *corrState) []byte {
	var w codec.Writer
	var keys []string
	s.encode(&w, &keys)
	return w.B
}

func set[K comparable](keys ...K) map[K]bool {
	m := make(map[K]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// sampleState builds a durable state exercising every encoded field except
// the verify gate's (verifiedSampleState adds those).
func sampleState() *corrState {
	return &corrState{
		savedAt:       1500 * sim.Millisecond,
		Alarms:        7,
		Suppressed:    2,
		Localizations: 1,
		Reroutes:      1,
		links: map[string]*linkState{
			"seattle>sunnyvale": {linkRecord: linkRecord{
				localized:   true,
				localizedAt: 1400 * sim.Millisecond,
				affected:    set[netsim.EntryID](3, 10),
				treePaths:   2,
				alarms:      5,
				suppressed:  1,
				downTimes:   []sim.Time{900 * sim.Millisecond},
				seen:        set("ded|10|1000000", "tree|1.2|1100000"),
				evidence: []fancy.Event{
					{Time: sim.Second, Port: 4, Kind: 1, Entry: 10, Diff: 42},
					{Time: 1100 * sim.Millisecond, Port: 4, Kind: 2, Path: []uint16{1, 2}, Diff: 17},
				},
				lastHealth: 2,
			}},
			"denver>kansascity": {linkRecord: linkRecord{
				verdictPending: true,
				incidentStart:  1200 * sim.Millisecond,
				flapping:       true,
			}},
		},
		restartsSeen:    map[string]int{"seattle": 1, "denver": 0},
		restartObserved: map[string]sim.Time{"seattle": 800 * sim.Millisecond},
		epochCur:        map[string]uint8{"seattle": 1, "denver": 0},
		epochPrev:       map[string]uint8{"seattle": 0},
		rerouteSeen:     set("seattle>sunnyvale|10"),
		seq: map[string]mgmt.SeqState{
			"agent-seattle": {Contig: 41, Above: []uint64{43, 45}},
			"agent-denver":  {Contig: 12},
		},
	}
}

// verifiedSampleState is sampleState plus a decision log (with and without a
// delta frame) and a parked flip.
func verifiedSampleState() *corrState {
	s := sampleState()
	d := verify.NewDelta("seattle>sunnyvale", []verify.Flip{verify.EntryFlip("seattle", 10, 2)})
	s.verifyLog = []VerifyDecision{
		{Key: "seattle>sunnyvale|1400000000|10", Outcome: verifyRepaired, Frame: verify.EncodeDelta(d)},
		{Key: "seattle>sunnyvale|1400000000|3", Outcome: verifyRejected},
	}
	s.verifyHeld = []*heldReroute{{link: "seattle>sunnyvale", key: "seattle>sunnyvale|1400000000|4", entry: 4, retries: 2}}
	return s
}

func sampleMsgs() []*consMsg {
	entry := &logEntry{Index: 9, Ballot: 7, Note: []byte("verdict seattle>sunnyvale"), Cp: frameOf(sampleState())}
	return []*consMsg{
		{Kind: consPrepare, From: 1, Ballot: 4},
		{Kind: consPromise, From: 2, Ballot: 4, Index: 8, AccBallot: 3, Entry: entry},
		{Kind: consPromise, From: 0, Ballot: 4}, // nothing accepted yet
		{Kind: consAccept, From: 1, Ballot: 4, Index: 9, Entry: entry},
		{Kind: consAccepted, From: 2, Ballot: 4, Index: 9},
		{Kind: consNack, From: 0, Ballot: 6},
		{Kind: consBeat, From: 1, Ballot: 4, Index: 9},
		{Kind: consBeat, From: 1, Ballot: 4, Index: 8, Entry: entry}, // retransmit
		{Kind: consAccept, From: 1, Ballot: 4, Index: 1,
			Entry: &logEntry{Index: 1, Ballot: 4, Note: []byte("window"), Cp: frameOf(&corrState{})}},
	}
}

// pinnedMsgs is what testdata/consensus.hex records: sampleMsgs plus an
// accept whose frame carries the verify gate's fields.
func pinnedMsgs() []*consMsg {
	return append(sampleMsgs(), &consMsg{Kind: consAccept, From: 0, Ballot: 6, Index: 10,
		Entry: &logEntry{Index: 10, Ballot: 6, Note: []byte("evidence seattle>sunnyvale"), Cp: frameOf(verifiedSampleState())}})
}

// TestWireFormatPinned compares every sample message with the bytes the
// pre-codec, struct-mirroring encoder produced for the same state (recorded
// at commit 7231d9a): the wire format has not moved by a bit.
func TestWireFormatPinned(t *testing.T) {
	var got strings.Builder
	for _, m := range pinnedMsgs() {
		fmt.Fprintf(&got, "%x\n", encodeConsensus(m))
	}
	want, err := os.ReadFile("testdata/consensus.hex")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("consensus wire bytes moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// reencodeFrame decodes a state frame and encodes the result again. Messages
// carry frames verbatim, so this — not the message round trip — is where the
// canonical-form property of the state codec shows.
func reencodeFrame(t *testing.T, frame []byte) []byte {
	t.Helper()
	var st corrState
	if err := decodeState(frame, &st); err != nil {
		t.Fatalf("state frame a message decoder accepted does not decode: %v", err)
	}
	return frameOf(&st)
}

// checkFrame walks a state frame both ways decodeState can — building the
// state and only checking it — and returns their verdict, failing t if the
// two disagree.
func checkFrame(t *testing.T, frame []byte) error {
	t.Helper()
	built, checked := decodeState(frame, &corrState{}), decodeState(frame, nil)
	if (built == nil) != (checked == nil) {
		t.Fatalf("building the state says %v, checking it says %v:\n%x", built, checked, frame)
	}
	return checked
}

// TestWireRoundtrip checks the canonical-form property: decoding and
// re-encoding any encoded message — and the state frame inside it —
// reproduces the original bytes exactly. Byte equality (rather than struct
// comparison) is the property the replicas actually rely on for
// deterministic transcripts.
func TestWireRoundtrip(t *testing.T) {
	for i, m := range pinnedMsgs() {
		b := encodeConsensus(m)
		var e logEntry
		got, err := decodeConsensus(b, &e)
		if err != nil {
			t.Fatalf("msg %d (%v): decode failed: %v", i, m.Kind, err)
		}
		if got.Kind != m.Kind || got.From != m.From || got.Ballot != m.Ballot ||
			got.Index != m.Index || got.AccBallot != m.AccBallot {
			t.Fatalf("msg %d: header mismatch: %+v vs %+v", i, got, m)
		}
		if !bytes.Equal(encodeConsensus(&got), b) {
			t.Fatalf("msg %d (%v): decode∘encode not canonical", i, m.Kind)
		}
		if m.Entry != nil && !bytes.Equal(reencodeFrame(t, got.Entry.Cp), m.Entry.Cp) {
			t.Fatalf("msg %d (%v): state frame decode∘encode not canonical", i, m.Kind)
		}
	}
}

// TestWireEncodingDeterministic rebuilds and re-encodes the same state
// repeatedly: map iteration order must never leak into the bytes.
func TestWireEncodingDeterministic(t *testing.T) {
	first := frameOf(verifiedSampleState())
	for i := 0; i < 32; i++ {
		if !bytes.Equal(frameOf(verifiedSampleState()), first) {
			t.Fatalf("encoding varies across runs (map order leak), run %d", i)
		}
	}
}

// orderedFrames holds, per collection the state codec keeps in order, a
// canonical frame in which the two elements 'a' and 'b' of that collection are
// the only bytes with those values, so rewriting them in place (reorder)
// shuffles or duplicates exactly that collection.
func orderedFrames() map[string][]byte {
	ab := set("a", "b")
	frames := make(map[string][]byte)
	for name, st := range map[string]*corrState{
		"links":           {links: map[string]*linkState{"a": {}, "b": {}}},
		"restartsSeen":    {restartsSeen: map[string]int{"a": 0, "b": 0}},
		"restartObserved": {restartObserved: map[string]sim.Time{"a": 0, "b": 0}},
		"epochCur":        {epochCur: map[string]uint8{"a": 0, "b": 0}},
		"epochPrev":       {epochPrev: map[string]uint8{"a": 0, "b": 0}},
		"rerouteSeen":     {rerouteSeen: ab},
		"seq":             {seq: map[string]mgmt.SeqState{"a": {}, "b": {}}},
		"seq.Above":       {seq: map[string]mgmt.SeqState{"x": {Above: []uint64{'a', 'b'}}}},
		"link.seen":       {links: map[string]*linkState{"x": {linkRecord: linkRecord{seen: ab}}}},
		"link.affected": {links: map[string]*linkState{"x": {linkRecord: linkRecord{
			affected: set[netsim.EntryID]('a', 'b')}}}},
	} {
		frames[name] = frameOf(st)
	}
	return frames
}

// misorders are the rewrites of 'a' and 'b' that break strict ascent.
var misorders = map[string][2]byte{"shuffled": {'b', 'a'}, "duplicated": {'a', 'a'}}

// reorder returns frame with its 'a' and 'b' bytes rewritten to to[0], to[1].
func reorder(frame []byte, to [2]byte) []byte {
	out := bytes.Clone(frame)
	for i, c := range out {
		switch c {
		case 'a':
			out[i] = to[0]
		case 'b':
			out[i] = to[1]
		}
	}
	return out
}

// TestStateFrameRejectsNonCanonical: the rules the state codec adds on top
// of internal/codec. Every map, set and ascending list must decode strictly
// ascending, and the decision log's outcomes and embedded delta frames are
// checked — whether the walk builds the state or only checks it.
func TestStateFrameRejectsNonCanonical(t *testing.T) {
	for name, good := range orderedFrames() {
		if err := checkFrame(t, good); err != nil {
			t.Fatalf("%s: canonical frame rejected: %v", name, err)
		}
		for what, to := range misorders {
			if checkFrame(t, reorder(good, to)) == nil {
				t.Errorf("%s %s: decoded without error", name, what)
			}
		}
	}
	for name, d := range map[string]VerifyDecision{
		"outcome out of range": {Key: "k", Outcome: verifyOutcomeMax + 1},
		"forged delta frame":   {Key: "k", Outcome: verifyCommitted, Frame: []byte{9, 9}},
	} {
		if checkFrame(t, frameOf(&corrState{verifyLog: []VerifyDecision{d}})) == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestWireRejects rejects truncations, trailing garbage and bad versions —
// every prefix of a valid message except the full message must fail.
func TestWireRejects(t *testing.T) {
	b := encodeConsensus(sampleMsgs()[1])
	var e logEntry
	for n := 0; n < len(b); n++ {
		if _, err := decodeConsensus(b[:n], &e); err == nil {
			t.Fatalf("accepted truncation to %d/%d bytes", n, len(b))
		}
	}
	if _, err := decodeConsensus(append(append([]byte(nil), b...), 0), &e); err == nil {
		t.Fatal("accepted trailing garbage")
	}
	bad := append([]byte(nil), b...)
	bad[0] = wireVersion + 1
	if _, err := decodeConsensus(bad, &e); err == nil {
		t.Fatal("accepted wrong wire version")
	}
	if _, err := decodeConsensus(nil, &e); err == nil {
		t.Fatal("accepted empty input")
	}
}
