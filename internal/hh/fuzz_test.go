package hh

import (
	"bytes"
	"slices"
	"testing"

	"fancy/internal/netsim"
)

// FuzzDecodeHHReport fuzzes the agent↔controller report wire format: the
// decoder must never panic, and any frame it accepts must be exactly the
// canonical encoding of what it decoded (so decode∘encode is idempotent
// and no two distinct frames alias one report). Decoding the same frame
// into a dirty Report — every field set, a longer Entries with spare
// capacity — must accept and reject alike and give the same report.
func FuzzDecodeHHReport(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{reportVersion})
	f.Add(EncodeReport(&Report{Port: 1, Epoch: 2, Seq: 3}))
	f.Add(EncodeReport(&Report{
		Port: 9, Epoch: 0, Seq: 77, Packets: 1e6, Recircs: 31,
		Entries: []EntryCount{
			{Entry: 5, Count: 900}, {Entry: 1, Count: 80},
			{Entry: 2, Count: 80}, {Entry: netsim.EntryID(1<<32 - 1), Count: 1},
		},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := DecodeReport(b)
		dirty := &Report{Port: 0xffff, Epoch: 0xff, Seq: 1<<32 - 1, Packets: 1 << 60, Recircs: 1 << 61,
			Entries: make([]EntryCount, 9, 64)}
		for i := range dirty.Entries {
			dirty.Entries[i] = EntryCount{Entry: netsim.EntryID(i + 1), Count: 1 << 31}
		}
		if errInto := DecodeReportInto(dirty, b); (errInto == nil) != (err == nil) {
			t.Fatalf("DecodeReport err %v, DecodeReportInto err %v", err, errInto)
		}
		if err != nil {
			return
		}
		if dirty.Port != rep.Port || dirty.Epoch != rep.Epoch || dirty.Seq != rep.Seq ||
			dirty.Packets != rep.Packets || dirty.Recircs != rep.Recircs || !slices.Equal(dirty.Entries, rep.Entries) {
			t.Fatalf("decode into a dirty Report:\n got  %+v\n want %+v", dirty, rep)
		}
		canon := EncodeReport(rep)
		if !bytes.Equal(canon, b) {
			t.Fatalf("accepted non-canonical frame:\n in    %x\n canon %x", b, canon)
		}
		again, err := DecodeReport(canon)
		if err != nil {
			t.Fatalf("canonical re-decode failed: %v", err)
		}
		if !bytes.Equal(EncodeReport(again), canon) {
			t.Fatal("decode/encode not idempotent")
		}
	})
}
