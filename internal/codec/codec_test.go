package codec

import (
	"bytes"
	"math"
	"testing"
)

// TestRoundTrip writes one of everything and reads it back.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Varint(-1)
	w.Byte(0xfe)
	w.Bool(true)
	w.Bool(false)
	w.Str("seattle->denver")
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.Uvarint(0xffff)
	w.Uvarint(0xffffffff)
	w.Uvarint(2) // a count of the two bytes that follow
	w.Byte(7)
	w.Byte(8)

	r := NewReader(w.B)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d, want 0", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want max", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d, want min", v)
	}
	if v := r.Varint(); v != -1 {
		t.Errorf("Varint = %d, want -1", v)
	}
	if v := r.Byte(); v != 0xfe {
		t.Errorf("Byte = %#x, want 0xfe", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not read true, false")
	}
	if v := r.Str(); v != "seattle->denver" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Errorf("empty Bytes = %v", v)
	}
	if v := r.U16(); v != 0xffff {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xffffffff {
		t.Errorf("U32 = %#x", v)
	}
	if r.Done() {
		t.Error("Done with three bytes unread")
	}
	if n := r.Count(); n != 2 {
		t.Errorf("Count = %d, want 2", n)
	}
	if v := r.Rest(); !bytes.Equal(v, []byte{7, 8}) {
		t.Errorf("Rest = %v", v)
	}
	if r.Failed() || !r.Done() {
		t.Errorf("Failed=%v Done=%v after a complete parse", r.Failed(), r.Done())
	}
}

// TestRejects: each way a primitive can be malformed latches the error, and
// a latched reader yields zero values from then on.
func TestRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"empty uvarint":        {nil, func(r *Reader) { r.Uvarint() }},
		"truncated uvarint":    {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"padded uvarint":       {[]byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		"overflowing uvarint":  {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		"padded varint":        {[]byte{0x82, 0x00}, func(r *Reader) { r.Varint() }},
		"empty byte":           {nil, func(r *Reader) { r.Byte() }},
		"flag byte 2":          {[]byte{2}, func(r *Reader) { r.Bool() }},
		"u16 out of range":     {[]byte{0x80, 0x80, 0x04}, func(r *Reader) { r.U16() }},
		"u32 out of range":     {[]byte{0x80, 0x80, 0x80, 0x80, 0x10}, func(r *Reader) { r.U32() }},
		"count past the input": {[]byte{3, 1, 2}, func(r *Reader) { r.Count() }},
		"string past the input": {[]byte{3, 'a', 'b'}, func(r *Reader) {
			r.Str()
		}},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if !r.Failed() || r.Done() {
			t.Errorf("%s: Failed=%v Done=%v, want a latched error", name, r.Failed(), r.Done())
		}
		if r.Uvarint() != 0 || r.Varint() != 0 || r.Byte() != 0 || r.Bool() || r.Count() != 0 ||
			r.Str() != "" || len(r.Bytes()) != 0 || len(r.Rest()) != 0 {
			t.Errorf("%s: a failed reader returned a non-zero value", name)
		}
	}
	if r := NewReader([]byte{1, 0}); r.Uvarint() != 1 || r.Done() {
		t.Error("Done accepted a trailing byte")
	}
}

// FuzzCodecReader drives the Reader over arbitrary input with an arbitrary
// sequence of reads. It must never panic; Count (and the length prefix of
// Str/Bytes) never exceeds the bytes remaining, so no allocation can exceed
// the input; and every value it accepts re-encodes through the Writer to
// exactly the bytes it was read from — valid input and canonical input are
// the same set.
func FuzzCodecReader(f *testing.F) {
	var w Writer
	w.Uvarint(300)
	w.Varint(-300)
	w.Bool(true)
	w.Str("abc")
	w.Uvarint(2)
	w.Byte(1)
	w.Byte(2)
	f.Add(w.B, []byte{0, 1, 5, 7, 6, 4, 4})
	f.Add([]byte{0x81, 0x00}, []byte{0})                   // padded varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{6}) // count far past the input
	f.Add(bytes.Repeat([]byte{0xff}, 64), []byte{0, 1, 2}) // overflow everywhere
	f.Add([]byte{2, 1, 0, 5, 'h', 'e', 'l', 'l', 'o'}, []byte{5, 5, 5, 8, 9})

	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data)
		var out Writer // canonical re-encoding of everything accepted so far
		for _, op := range ops {
			switch op % 10 {
			case 0:
				if v := r.Uvarint(); !r.Failed() {
					out.Uvarint(v)
				}
			case 1:
				if v := r.Varint(); !r.Failed() {
					out.Varint(v)
				}
			case 2:
				if v := r.U16(); !r.Failed() {
					out.Uvarint(uint64(v))
				}
			case 3:
				if v := r.U32(); !r.Failed() {
					out.Uvarint(uint64(v))
				}
			case 4:
				if v := r.Byte(); !r.Failed() {
					out.Byte(v)
				}
			case 5:
				if v := r.Bool(); !r.Failed() {
					out.Bool(v)
				}
			case 6:
				if n := r.Count(); !r.Failed() {
					out.Uvarint(uint64(n))
					if n > len(data)-len(out.B) {
						t.Fatalf("Count %d exceeds the %d bytes remaining", n, len(data)-len(out.B))
					}
				}
			case 7:
				if v := r.Str(); !r.Failed() {
					out.Str(v)
				}
			case 8:
				if v := r.Bytes(); !r.Failed() {
					out.Bytes(v)
				}
			case 9:
				if v := r.Rest(); !r.Failed() {
					out.B = append(out.B, v...)
				}
			}
			if r.Failed() {
				break
			}
			if len(out.B) > len(data) || !bytes.Equal(out.B, data[:len(out.B)]) {
				t.Fatalf("accepted a non-canonical encoding (op %d):\n in  %x\n out %x", op%10, data, out.B)
			}
		}
		if r.Failed() {
			if r.Done() || r.Uvarint() != 0 || r.Count() != 0 || len(r.Rest()) != 0 {
				t.Fatal("a failed reader is Done or still yields values")
			}
			return
		}
		if r.Done() != (len(out.B) == len(data)) {
			t.Fatalf("Done=%v with %d of %d bytes consumed", r.Done(), len(out.B), len(data))
		}
	})
}
