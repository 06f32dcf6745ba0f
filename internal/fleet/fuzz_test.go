package fleet

import (
	"bytes"
	"testing"
)

// FuzzDecodeConsensus throws arbitrary bytes at the consensus decoder: it
// must never panic and never allocate proportionally to a hostile length
// prefix, and anything it does accept must re-encode to the exact same
// bytes (the canonical-form property replication determinism rests on) and
// decode again to the same message. The corpus seeds every message kind,
// with and without a full checkpoint payload, plus targeted corruptions.
func FuzzDecodeConsensus(f *testing.F) {
	for _, m := range sampleMsgs() {
		b := encodeConsensus(m)
		f.Add(b)
		// Truncations and bit flips around the seed messages give the
		// fuzzer a head start on the interesting joints.
		f.Add(b[:len(b)/2])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add([]byte{wireVersion, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // max varints everywhere

	f.Fuzz(func(t *testing.T, data []byte) {
		var e logEntry
		m, err := decodeConsensus(data, &e) // must not panic, whatever the input
		if err != nil {
			return
		}
		enc := encodeConsensus(&m)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical input:\n in: %x\nout: %x", data, enc)
		}
		// The message encoder appends an entry's state frame verbatim, so
		// the check above no longer reaches inside it: re-encode the frame
		// from the state it decodes to.
		if m.Entry != nil && m.Entry.Cp != nil {
			if re := reencodeFrame(t, m.Entry.Cp); !bytes.Equal(re, m.Entry.Cp) {
				t.Fatalf("accepted non-canonical state frame:\n in: %x\nout: %x", m.Entry.Cp, re)
			}
		}
		var e2 logEntry
		m2, err := decodeConsensus(enc, &e2)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if !bytes.Equal(encodeConsensus(&m2), enc) {
			t.Fatal("decode∘encode not idempotent")
		}
	})
}

// FuzzStateValidationAgrees is the differential check on decodeState's two
// walks: checking a frame in place, which is all a replica does with a frame
// it is sent, must accept exactly the byte strings that building the state
// from it accepts — the state a takeover restores — and a frame both accept
// must re-encode to itself. The corpus is every state frame the pinned
// messages carry and every canonical and misordered frame of
// TestStateFrameRejectsNonCanonical.
func FuzzStateValidationAgrees(f *testing.F) {
	for _, m := range pinnedMsgs() {
		if m.Entry != nil {
			f.Add(m.Entry.Cp)
		}
	}
	for _, good := range orderedFrames() {
		f.Add(good)
		for _, to := range misorders {
			f.Add(reorder(good, to))
		}
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		if checkFrame(t, frame) != nil {
			return
		}
		if re := reencodeFrame(t, frame); !bytes.Equal(re, frame) {
			t.Fatalf("accepted non-canonical state frame:\n in: %x\nout: %x", frame, re)
		}
	})
}
