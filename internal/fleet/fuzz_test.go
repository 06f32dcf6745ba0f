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
		m, err := decodeConsensus(data) // must not panic, whatever the input
		if err != nil {
			return
		}
		enc := encodeConsensus(m)
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
		m2, err := decodeConsensus(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if !bytes.Equal(encodeConsensus(m2), enc) {
			t.Fatal("decode∘encode not idempotent")
		}
	})
}
