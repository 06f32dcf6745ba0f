package traffic

import (
	"math"
	"math/rand"
	"sort"

	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// TraceConfig describes a CAIDA-like trace to synthesize. The four standard
// configurations returned by StandardTraces reproduce the aggregate
// statistics the paper reports in Table 5 for its evaluation traces.
type TraceConfig struct {
	Name       string
	BitRateBps float64 // aggregate bit rate
	PacketRate float64 // aggregate packets/s (fixes the mean packet size)
	FlowRate   float64 // aggregate flow arrivals/s
	Prefixes   int     // number of /24 prefixes carrying traffic
	Duration   sim.Time
	Seed       int64

	// Scale divides all three rates and the prefix count, so tests can run
	// a faithful miniature of a trace. 0 or 1 means full scale.
	Scale float64
}

func (c TraceConfig) scaled() TraceConfig {
	if c.Scale > 1 {
		c.BitRateBps /= c.Scale
		c.PacketRate /= c.Scale
		c.FlowRate /= c.Scale
		c.Prefixes = int(float64(c.Prefixes)/c.Scale) + 1
	}
	return c
}

// traceZipf is the per-prefix byte-share skew exponent of every trace.
const traceZipf = 1.05

// Trace is a synthesized workload slice.
type Trace struct {
	Config TraceConfig

	// HistoricalShare is the long-term byte share per prefix, rank order
	// (index = rank). Dedicated-counter allocation uses this, mimicking
	// the paper's allocation "based on historical data".
	HistoricalShare []float64

	// SliceShare is the byte share during the synthesized slice: the
	// historical share with per-prefix jitter, so the top prefixes of the
	// slice "do not generally coincide" with the historical top (§5.2).
	SliceShare []float64

	Specs []FlowSpec
}

// Synthesize builds a trace slice from cfg.
func Synthesize(cfg TraceConfig) *Trace {
	cfg = cfg.scaled()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Config: cfg}
	tr.HistoricalShare = ZipfShares(cfg.Prefixes, traceZipf)

	// Jitter the slice shares log-normally and renormalize.
	tr.SliceShare = make([]float64, cfg.Prefixes)
	var sum float64
	for i, s := range tr.HistoricalShare {
		j := s * math.Exp(rng.NormFloat64()*0.7)
		tr.SliceShare[i] = j
		sum += j
	}
	for i := range tr.SliceShare {
		tr.SliceShare[i] /= sum
	}

	meanFlowBytes := cfg.BitRateBps / 8 / cfg.FlowRate
	// Segment size matched to the trace's mean packet size so the packet
	// rate tracks Table 5, not just the bit rate. Real traces mix ACK-
	// sized and MTU-sized packets; a per-flow size drawn around the mean
	// reproduces the aggregate rate with per-flow realism.
	meanPkt := 1460.0
	if cfg.PacketRate > 0 {
		meanPkt = cfg.BitRateBps / 8 / cfg.PacketRate
	}
	drawMSS := func() int {
		mss := int(meanPkt * (0.5 + rng.Float64())) // uniform [0.5, 1.5)×mean
		if mss < 120 {
			mss = 120
		}
		if mss > 1460 {
			mss = 1460
		}
		return mss
	}
	// A prefix draws at most ⌊expected⌋+1 flows and the expectations sum
	// to FlowRate·Duration, so this bound holds every flow; the +1 absorbs
	// the rounding of the shares' sum.
	tr.Specs = make([]FlowSpec, 0, int(cfg.FlowRate*cfg.Duration.Seconds())+cfg.Prefixes+1)
	for i, share := range tr.SliceShare {
		prefixBps := cfg.BitRateBps * share
		fps := cfg.FlowRate * share
		// Sporadic prefixes: expected arrivals over the slice may be <1;
		// draw the count so the tail stays populated probabilistically.
		expected := fps * cfg.Duration.Seconds()
		n := int(expected)
		if rng.Float64() < expected-float64(n) {
			n++
		}
		if n == 0 {
			continue
		}
		bytesPerFlow := int64(prefixBps * cfg.Duration.Seconds() / 8 / float64(n))
		if bytesPerFlow < 40 {
			bytesPerFlow = 40
		}
		// Cap single flows at ~16× the mean so one elephant cannot absorb
		// a prefix's entire share in one burst.
		if cap := int64(16 * meanFlowBytes); bytesPerFlow > cap && cap > 40 {
			bytesPerFlow = cap
		}
		for k := 0; k < n; k++ {
			start := sim.Time(rng.Int63n(int64(cfg.Duration)))
			rate := float64(bytesPerFlow) * 8 // ≈1 s duration pacing
			tr.Specs = append(tr.Specs, FlowSpec{
				Entry: netsim.EntryID(i), Start: start,
				Bytes: bytesPerFlow, RateBps: rate, MSS: drawMSS(),
			})
		}
	}
	sort.Slice(tr.Specs, func(a, b int) bool { return tr.Specs[a].Start < tr.Specs[b].Start })
	return tr
}

// TraceStats summarizes a synthesized trace (Table 5 columns).
type TraceStats struct {
	BitRateBps  float64
	PacketRate  float64 // from per-flow segment sizes
	FlowRate    float64
	TotalBytes  int64
	TotalFlows  int
	ActivePfx   int     // prefixes with at least one flow in the slice
	Top500Bytes float64 // share of bytes in the 500 historically top prefixes
}

// Stats computes the trace's aggregate statistics.
func (tr *Trace) Stats() TraceStats {
	var st TraceStats
	secs := tr.Config.Duration.Seconds()
	active := make(map[netsim.EntryID]bool)
	var top500 int64
	for _, f := range tr.Specs {
		st.TotalBytes += f.Bytes
		st.TotalFlows++
		mss := f.MSS
		if mss == 0 {
			mss = 1460
		}
		st.PacketRate += math.Ceil(float64(f.Bytes) / float64(mss))
		active[f.Entry] = true
		if int(f.Entry) < 500 {
			top500 += f.Bytes
		}
	}
	st.BitRateBps = float64(st.TotalBytes) * 8 / secs
	st.PacketRate /= secs
	st.FlowRate = float64(st.TotalFlows) / secs
	st.ActivePfx = len(active)
	if st.TotalBytes > 0 {
		st.Top500Bytes = float64(top500) / float64(st.TotalBytes)
	}
	return st
}

// SliceTop returns the n prefixes carrying the most bytes in the slice, in
// descending byte order.
func (tr *Trace) SliceTop(n int) []netsim.EntryID {
	type pv struct {
		e netsim.EntryID
		b int64
	}
	bytes := make(map[netsim.EntryID]int64)
	for _, f := range tr.Specs {
		bytes[f.Entry] += f.Bytes
	}
	all := make([]pv, 0, len(bytes))
	for e, b := range bytes {
		all = append(all, pv{e, b})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].b != all[j].b {
			return all[i].b > all[j].b
		}
		return all[i].e < all[j].e
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]netsim.EntryID, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].e
	}
	return out
}

// StandardTraces returns synthesizer configurations matching the four CAIDA
// traces of Table 5. Durations are the 30-second slices §5.2 replays rather
// than the full hour.
func StandardTraces(scale float64) []TraceConfig {
	mk := func(name string, gbps, kpps, kfps float64, prefixes int, seed int64) TraceConfig {
		return TraceConfig{
			Name: name, BitRateBps: gbps * 1e9, PacketRate: kpps * 1e3,
			FlowRate: kfps * 1e3, Prefixes: prefixes,
			Duration: 30 * sim.Second, Seed: seed, Scale: scale,
		}
	}
	return []TraceConfig{
		mk("equinix-chicago.dirB-2014", 6.25, 759.1, 28.3, 250_000, 101),
		mk("equinix-nyc.dirA-2018", 3.86, 557.0, 26.4, 230_000, 102),
		mk("equinix-nyc.dirB-2018", 5.79, 2030.0, 104.5, 280_000, 103),
		mk("equinix-nyc.dirB-2019", 4.72, 1560.0, 90.7, 260_000, 104),
	}
}
