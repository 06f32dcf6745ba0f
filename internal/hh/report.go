package hh

import (
	"errors"
	"fmt"

	"fancy/internal/codec"
	"fancy/internal/netsim"
)

// Report is one periodic top-k digest from a port's heavy-hitter stage,
// carried from the dataplane to the switch agent. The wire format follows
// the fleet codec discipline: version-tagged, minimal varints only, strict
// canonical ordering, no trailing bytes — a report that does not decode to
// exactly its canonical encoding is rejected, so the allocator can never
// be steered by a malformed or ambiguous frame.
type Report struct {
	Port    uint16
	Epoch   uint8  // detector wire epoch when the window closed
	Seq     uint32 // per-port report sequence number
	Packets uint64 // packets observed in the window
	Recircs uint64 // recirculated admissions in the window
	// Entries is ordered by descending count, ties by ascending entry —
	// the same canonical order TopK produces.
	Entries []EntryCount
}

const reportVersion = 1

// maxReportEntries bounds the decoded entry list; no real sketch
// configuration reports more, and the bound caps allocation on garbage.
const maxReportEntries = 4096

// EncodeReport serializes r in canonical form.
func EncodeReport(r *Report) []byte {
	return AppendReport(make([]byte, 0, 16+8*len(r.Entries)), r)
}

// AppendReport appends r's canonical encoding to dst and returns the
// extended buffer.
func AppendReport(dst []byte, r *Report) []byte {
	w := codec.Writer{B: dst}
	w.Byte(reportVersion)
	w.Uvarint(uint64(r.Port))
	w.Byte(r.Epoch)
	w.Uvarint(uint64(r.Seq))
	w.Uvarint(r.Packets)
	w.Uvarint(r.Recircs)
	w.Uvarint(uint64(len(r.Entries)))
	for _, ec := range r.Entries {
		w.Uvarint(uint64(ec.Entry))
		w.Uvarint(uint64(ec.Count))
	}
	return w.B
}

var errBadReport = errors.New("hh: malformed report")

// DecodeReport parses and validates a canonical report frame.
func DecodeReport(b []byte) (*Report, error) {
	rep := &Report{}
	if err := DecodeReportInto(rep, b); err != nil {
		return nil, err
	}
	return rep, nil
}

// DecodeReportInto is DecodeReport into a caller's Report: every field is
// overwritten and rep.Entries' storage is reused. On error rep holds an
// unspecified partial decode.
func DecodeReportInto(rep *Report, b []byte) error {
	r := codec.NewReader(b)
	if r.Byte() != reportVersion {
		return fmt.Errorf("%w: bad version", errBadReport)
	}
	rep.Port = r.U16()
	rep.Epoch = r.Byte()
	rep.Seq = r.U32()
	rep.Packets = r.Uvarint()
	rep.Recircs = r.Uvarint()
	rep.Entries = rep.Entries[:0]
	// Each entry costs at least two bytes on the wire, so Count's
	// bytes-remaining bound already rejects a prefix that cannot fit.
	n := r.Count()
	if n > maxReportEntries {
		r.Fail()
	}
	var prev EntryCount
	for i := 0; i < n && !r.Failed(); i++ {
		ec := EntryCount{Entry: netsim.EntryID(r.U32()), Count: r.U32()}
		if r.Failed() {
			break
		}
		// Enforce the canonical order: strictly descending by count,
		// ties strictly ascending by entry (which also bans duplicates).
		if i > 0 {
			if ec.Count > prev.Count || (ec.Count == prev.Count && ec.Entry <= prev.Entry) {
				return fmt.Errorf("%w: entries out of canonical order", errBadReport)
			}
		}
		rep.Entries = append(rep.Entries, ec)
		prev = ec
	}
	if !r.Done() {
		return errBadReport
	}
	return nil
}
