package hh

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"fancy/internal/netsim"
)

// zipfStream deterministically draws entries with a heavy-tailed
// distribution over n prefixes.
func zipfStream(seed int64, n, packets int) []netsim.EntryID {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	out := make([]netsim.EntryID, packets)
	for i := range out {
		out[i] = netsim.EntryID(z.Uint64())
	}
	return out
}

// TestSketchFindsHead: under a Zipf workload the top reported prefixes
// must be the true head of the distribution.
func TestSketchFindsHead(t *testing.T) {
	sk := NewSketch(Params{Stages: 3, Width: 32, Seed: 7})
	stream := zipfStream(1, 200, 20000)
	truth := map[netsim.EntryID]int{}
	for _, e := range stream {
		truth[e]++
		sk.Observe(e)
	}
	top := sk.TopK(4)
	if len(top) != 4 {
		t.Fatalf("TopK(4) returned %d entries", len(top))
	}
	for _, ec := range top {
		// Every reported heavy hitter must be genuinely heavy: at least
		// 1% of the stream.
		if truth[ec.Entry] < len(stream)/100 {
			t.Errorf("reported entry %d has true count %d — not a heavy hitter", ec.Entry, truth[ec.Entry])
		}
	}
	// The single heaviest prefix must be reported first.
	best, bestCount := netsim.InvalidEntry, 0
	for e, c := range truth {
		if c > bestCount || (c == bestCount && e < best) {
			best, bestCount = e, c
		}
	}
	if top[0].Entry != best {
		t.Errorf("top entry = %d, true heaviest = %d (count %d)", top[0].Entry, best, bestCount)
	}
}

// TestSketchDeterministic: same seed and stream, same slots, counts, and
// recirculation totals.
func TestSketchDeterministic(t *testing.T) {
	stream := zipfStream(2, 100, 5000)
	run := func() *Sketch {
		sk := NewSketch(Params{Seed: 99})
		for _, e := range stream {
			sk.Observe(e)
		}
		return sk
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.keys, b.keys) || !reflect.DeepEqual(a.counts, b.counts) {
		t.Fatal("same seed produced different sketch state")
	}
	if a.TotalRecircs != b.TotalRecircs {
		t.Fatalf("recircs differ: %d vs %d", a.TotalRecircs, b.TotalRecircs)
	}
	if a.TotalRecircs == 0 {
		t.Fatal("no admissions at all — the sketch never learned anything")
	}
}

// TestSketchStickyElephant: once a prefix has a large count, a burst of
// one-off prefixes must not evict it (the PRECISION point).
func TestSketchStickyElephant(t *testing.T) {
	sk := NewSketch(Params{Stages: 2, Width: 8, Seed: 5})
	const elephant = netsim.EntryID(42)
	for i := 0; i < 5000; i++ {
		sk.Observe(elephant)
	}
	// 2000 distinct mice, one packet each.
	for i := 0; i < 2000; i++ {
		sk.Observe(netsim.EntryID(1000 + i))
	}
	top := sk.TopK(1)
	if len(top) == 0 || top[0].Entry != elephant {
		t.Fatalf("elephant evicted by mice: top=%v", top)
	}
	if top[0].Count < 4000 {
		t.Fatalf("elephant count collapsed: %d", top[0].Count)
	}
}

// TestSketchResetAndWindow: Reset clears slots and window counters but the
// lifetime totals and RNG stream continue.
func TestSketchResetAndWindow(t *testing.T) {
	sk := NewSketch(Params{Seed: 1})
	for i := 0; i < 100; i++ {
		sk.Observe(netsim.EntryID(i % 10))
	}
	p, r := sk.Window()
	if p != 100 || r == 0 {
		t.Fatalf("window = (%d, %d), want 100 packets and some recircs", p, r)
	}
	rndBefore := sk.rnd
	sk.Reset()
	if p, r := sk.Window(); p != 0 || r != 0 {
		t.Fatalf("window after reset = (%d, %d)", p, r)
	}
	if len(sk.TopK(0)) != 0 {
		t.Fatal("TopK not empty after reset")
	}
	if sk.rnd != rndBefore {
		t.Fatal("Reset reseeded the RNG stream")
	}
	if sk.TotalPackets != 100 {
		t.Fatalf("lifetime packets reset: %d", sk.TotalPackets)
	}
}

// TestTopKCanonicalOrder: descending count, ties ascending entry.
func TestTopKCanonicalOrder(t *testing.T) {
	sk := NewSketch(Params{Stages: 3, Width: 64, Seed: 11})
	for e := 0; e < 6; e++ {
		for i := 0; i < 50+e; i++ {
			sk.Observe(netsim.EntryID(e))
		}
	}
	top := sk.TopK(0)
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		if b.Count > a.Count || (b.Count == a.Count && b.Entry <= a.Entry) {
			t.Fatalf("TopK order violated at %d: %v then %v", i, a, b)
		}
	}
	// AppendTopK onto a non-empty dst leaves the prefix alone, whatever
	// spare capacity it uses as scratch, and appends exactly TopK.
	for _, k := range []int{0, 1, 3, 100} {
		prefix := []EntryCount{{Entry: 99, Count: 1}, {Entry: 98, Count: 2}}
		dst := append(make([]EntryCount, 0, 64), prefix...)
		got := sk.AppendTopK(dst, k)
		if !reflect.DeepEqual(got[:len(prefix)], prefix) {
			t.Fatalf("k=%d: AppendTopK rewrote the prefix: %v", k, got[:len(prefix)])
		}
		if want := sk.TopK(k); !reflect.DeepEqual(got[len(prefix):], want) {
			t.Fatalf("k=%d: AppendTopK tail %v, TopK %v", k, got[len(prefix):], want)
		}
	}
}

// TestReportLoopDoesNotAllocate pins the steady state of one port's report
// loop with warmed buffers: top-k into a reused slice, encode into a reused
// frame, decode into a reused Report, and an Ingest that decides nothing
// once warm-up has promoted the four heaviest prefixes.
func TestReportLoopDoesNotAllocate(t *testing.T) {
	sk := NewSketch(Params{Seed: 3})
	stream := zipfStream(4, 200, 2000)
	alloc := NewAllocator(4, []netsim.EntryID{1})
	var (
		top    []EntryCount
		frame  []byte
		rep    Report
		seq    uint32
		steady bool
	)
	loop := func() {
		for _, e := range stream {
			sk.Observe(e)
		}
		top = sk.AppendTopK(top[:0], 8)
		packets, recircs := sk.Window()
		sk.Reset()
		frame = AppendReport(frame[:0], &Report{Port: 2, Epoch: 1, Seq: seq, Packets: packets, Recircs: recircs, Entries: top})
		seq++
		if err := DecodeReportInto(&rep, frame); err != nil {
			t.Fatal(err)
		}
		if acts := alloc.Ingest(&rep); steady && len(acts) != 0 {
			t.Fatalf("unexpected actions %v", acts)
		}
	}
	for i := 0; i < 4; i++ {
		loop()
	}
	if st := alloc.Stats(); st.Promotions != 4 || st.Deferred == 0 {
		t.Fatalf("warm-up stats %+v, want four promotions and a full table deferring the rest", st)
	}
	steady = true
	if avg := testing.AllocsPerRun(50, loop); avg != 0 {
		t.Errorf("a warmed report loop allocates %.2f objects, want 0", avg)
	}
	if len(rep.Entries) != 8 || alloc.Stats().Reports != 55 {
		t.Fatalf("loop did no work: %d entries, %d reports", len(rep.Entries), alloc.Stats().Reports)
	}
}

// TestReportRoundTrip: canonical encode/decode is the identity.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Port: 3, Epoch: 7, Seq: 19, Packets: 12345, Recircs: 67,
		Entries: []EntryCount{{Entry: 9, Count: 500}, {Entry: 2, Count: 80}, {Entry: 5, Count: 80}, {Entry: 1, Count: 3}},
	}
	frame := EncodeReport(rep)
	got, err := DecodeReport(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", rep, got)
	}
	// Empty report round-trips too.
	empty := &Report{Port: 1, Epoch: 0, Seq: 0}
	got, err = DecodeReport(EncodeReport(empty))
	if err != nil || !reflect.DeepEqual(empty, got) {
		t.Fatalf("empty round trip: %v %+v", err, got)
	}
}

// TestReportFormatPinned compares the frames of TestReportRoundTrip's two
// samples with the bytes the pre-codec encoder produced (recorded at commit
// 7231d9a): moving the varint primitives into internal/codec did not move
// the format.
func TestReportFormatPinned(t *testing.T) {
	var got strings.Builder
	for _, r := range []*Report{
		{Port: 3, Epoch: 7, Seq: 19, Packets: 12345, Recircs: 67,
			Entries: []EntryCount{{Entry: 9, Count: 500}, {Entry: 2, Count: 80}, {Entry: 5, Count: 80}, {Entry: 1, Count: 3}}},
		{Port: 1, Epoch: 0, Seq: 0},
	} {
		fmt.Fprintf(&got, "%x\n", EncodeReport(r))
	}
	want, err := os.ReadFile("testdata/report.hex")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("report frame bytes moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestReportRejects: malformed frames must all fail to decode.
func TestReportRejects(t *testing.T) {
	good := EncodeReport(&Report{
		Port: 1, Epoch: 2, Seq: 3, Packets: 4, Recircs: 1,
		Entries: []EntryCount{{Entry: 7, Count: 9}, {Entry: 8, Count: 9}},
	})
	cases := map[string][]byte{
		"empty":         {},
		"bad version":   append([]byte{99}, good[1:]...),
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte{}, good...), 0),
		"out of order": EncodeReport(&Report{Entries: []EntryCount{
			{Entry: 1, Count: 5}, {Entry: 2, Count: 9}}}),
		"duplicate entry": EncodeReport(&Report{Entries: []EntryCount{
			{Entry: 1, Count: 5}, {Entry: 1, Count: 5}}}),
		"huge count": {reportVersion, 1, 2, 3, 4, 1, 0xff},
	}
	for name, frame := range cases {
		if _, err := DecodeReport(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Non-minimal varint: port 1 encoded as two bytes.
	nm := append([]byte{reportVersion, 0x81, 0x00}, good[2:]...)
	if _, err := DecodeReport(nm); err == nil {
		t.Error("non-minimal varint decoded without error")
	}
}

// TestNewSketchAllocatesThreeObjects pins the sketch's layout: the Sketch,
// its row headers and one array behind all 2 × Stages rows, whatever the
// depth. Rows sharing that array must still not overlap.
func TestNewSketchAllocatesThreeObjects(t *testing.T) {
	for _, stages := range []int{1, 3, 8} {
		p := Params{Stages: stages, Width: 16, Seed: 3}
		if avg := testing.AllocsPerRun(20, func() { NewSketch(p) }); avg != 3 {
			t.Errorf("%d stages: NewSketch allocates %.2f objects, want 3", stages, avg)
		}
		sk := NewSketch(p)
		for i := 0; i < stages; i++ {
			for j := 0; j < p.Width; j++ {
				sk.keys[i][j], sk.counts[i][j] = uint32(1+i*p.Width+j), uint32(1000+i*p.Width+j)
			}
		}
		for i := 0; i < stages; i++ {
			for j := 0; j < p.Width; j++ {
				if k, c := sk.Slot(i, j); k != uint32(1+i*p.Width+j) || c != uint32(1000+i*p.Width+j) {
					t.Fatalf("%d stages: slot %d/%d reads %d/%d after every cell was written", stages, i, j, k, c)
				}
			}
		}
	}
}
