// Package codec holds the canonical-varint primitives every wire format in
// this repo is built from (the fleet consensus messages and state frames,
// verify's delta frames, hh's top-k reports).
//
// The rule all of them share: integers are minimal varints (zigzag for
// signed), strings and byte strings are length-prefixed, flags are exactly
// 0 or 1 — so a value has one encoding and "valid input" equals "canonical
// input". The Reader is total: any violation latches an error and every
// later read returns zero, and a length prefix is bounded by the bytes that
// remain, so hostile input costs an error, never a panic or an allocation
// larger than the input (FuzzCodecReader). What a message means — field
// order, sorted keys, value ranges — stays with the message's own codec.
package codec

import "encoding/binary"

// Writer appends canonical primitives to B.
type Writer struct{ B []byte }

func (w *Writer) Uvarint(v uint64) { w.B = binary.AppendUvarint(w.B, v) }
func (w *Writer) Varint(v int64)   { w.B = binary.AppendVarint(w.B, v) }
func (w *Writer) Byte(v byte)      { w.B = append(w.B, v) }

func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.B = append(w.B, s...)
}

func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.B = append(w.B, b...)
}

// Reader consumes canonical primitives from a byte slice.
type Reader struct {
	b   []byte
	bad bool
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail latches the error; message codecs call it for their own rule
// violations (unsorted keys, out-of-range values).
func (r *Reader) Fail() {
	r.bad = true
	r.b = nil
}

// Failed reports whether any read so far was malformed.
func (r *Reader) Failed() bool { return r.bad }

// Done reports a complete, well-formed parse: no error and no trailing bytes.
func (r *Reader) Done() bool { return !r.bad && len(r.b) == 0 }

// minimal reports whether the n-byte varint at the head of the input is
// well-formed: n <= 0 is truncation or overflow, and a zero final byte of a
// multi-byte varint is a padded encoding no Writer produces.
func (r *Reader) minimal(n int) bool {
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail()
		return false
	}
	return true
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if !r.minimal(n) {
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if !r.minimal(n) {
		return 0
	}
	r.b = r.b[n:]
	return v
}

// U32 and U16 read range-checked narrow integers (a wider value would
// silently truncate and break canonical re-encoding).
func (r *Reader) U32() uint32 {
	v := r.Uvarint()
	if v > 1<<32-1 {
		r.Fail()
		return 0
	}
	return uint32(v)
}

func (r *Reader) U16() uint16 {
	v := r.Uvarint()
	if v > 1<<16-1 {
		r.Fail()
		return 0
	}
	return uint16(v)
}

func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail()
	}
	return v == 1
}

// Count reads a length prefix and bounds it by the remaining input (every
// element costs at least one byte), so a hostile prefix cannot drive a huge
// allocation.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if v > uint64(len(r.b)) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string. The result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *Reader) Str() string { return string(r.Bytes()) }

// Rest consumes and returns everything left: a trailing embedded frame that
// its own decoder validates. The result aliases the input.
func (r *Reader) Rest() []byte {
	v := r.b
	r.b = nil
	return v
}
