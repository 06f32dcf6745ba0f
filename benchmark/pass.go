package main

import (
	"runtime"
	"time"

	"fancy/internal/fancy"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
	"fancy/internal/verify"
)

// bucket says which end-to-end host-time metric a benchmark→layer call is
// charged to.
type bucket uint8

const (
	bucketNone  bucket = iota // timed and traced, but neither set-up nor run
	bucketSetup               // setup_s
	bucketRun                 // wall_s
)

// boundary names one kind of call from the benchmark into a layer. Every
// such call goes through pass.call, so it is timed on every pass and
// recorded as a span on the traced one.
type boundary struct {
	name   string
	layer  string
	bucket bucket
}

var (
	bSynthesize   = boundary{"traffic.synthesize", "traffic", bucketSetup}
	bNetBuild     = boundary{"netsim.build", "netsim", bucketSetup}
	bDetectorNew  = boundary{"fancy.new_detector", "fancy", bucketSetup}
	bTopoBuild    = boundary{"topo.build", "topo", bucketSetup}
	bInstallPaths = boundary{"topo.install_paths", "topo", bucketSetup}
	bFleetNew     = boundary{"fleet.new", "fleet", bucketSetup}
	bTrafficStart = boundary{"traffic.start", "traffic", bucketSetup}
	bSimRun       = boundary{"sim.run", "sim", bucketRun}
	bSnapshot     = boundary{"fleet.snapshot", "fleet", bucketNone}
)

// span is one traced call. Parent is the index of the enclosing span in the
// pass's span list (-1 for the pass itself); times are host nanoseconds
// since the pass began.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Trial   int    `json:"trial"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// op is one injected gray failure and what the system made of it.
type op struct {
	name      string
	exact     bool     // detected/localized exactly, before the horizon
	ttl       sim.Time // injection → first correct verdict (exact only)
	protected bool     // a loop-free detour existed and the entry was protected
	rerouted  bool
	reroute   sim.Time // injection → EventRerouted (rerouted only)
	crosses   bool     // the entry's installed route crossed the failed link
}

// pass records one execution of a workload's fixed simulated work: host time
// per boundary, the operations and their outcomes, and the layers' counters
// read at trial boundaries. Everything but the host times must come out
// identical on every pass of a run.
type pass struct {
	traced bool
	began  time.Time
	spans  []span
	open   []int // stack of open span indices
	trial  int

	wall, setup time.Duration
	byName      map[string]time.Duration
	simTime     sim.Time

	ops           []op
	falseVerdicts int
	counts        map[string]uint64 // summed over trials
	peaks         map[string]uint64 // maximum over trials

	// What the probes after a traced pass are sized from: the workload's
	// detector configuration, and the last network with one protected
	// entry's backup flip on it.
	probeFancy fancy.Config
	probeNet   *topo.Network
	probeFlip  *verify.Delta

	mem0, mem1 runtime.MemStats
	samples    *sampler // traced passes only
}

func newPass(traced bool) *pass {
	p := &pass{
		traced: traced,
		byName: make(map[string]time.Duration),
		counts: make(map[string]uint64),
		peaks:  make(map[string]uint64),
		trial:  -1,
	}
	if traced {
		p.samples = &sampler{}
	}
	return p
}

func (p *pass) begin() {
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.began = time.Now()
	if p.traced {
		p.push("pass", "bench", p.began)
	}
}

func (p *pass) end() {
	now := time.Now()
	if p.traced {
		p.pop(now)
	}
	runtime.ReadMemStats(&p.mem1)
}

func (p *pass) push(name, layer string, at time.Time) {
	parent := -1
	if n := len(p.open); n > 0 {
		parent = p.open[n-1]
	}
	p.spans = append(p.spans, span{Name: name, Layer: layer, Trial: p.trial,
		Parent: parent, StartNs: at.Sub(p.began).Nanoseconds()})
	p.open = append(p.open, len(p.spans)-1)
}

func (p *pass) pop(at time.Time) {
	n := len(p.open) - 1
	p.spans[p.open[n]].EndNs = at.Sub(p.began).Nanoseconds()
	p.open = p.open[:n]
}

// beginTrial and endTrial bracket one simulator instance.
func (p *pass) beginTrial() {
	p.trial++
	if p.traced {
		p.push("trial", "bench", time.Now())
	}
}

func (p *pass) endTrial() {
	if p.traced {
		p.pop(time.Now())
	}
}

// call runs fn as one benchmark→layer call.
func (p *pass) call(b boundary, fn func()) {
	start := time.Now()
	if p.traced {
		p.push(b.name, b.layer, start)
	}
	fn()
	end := time.Now()
	if p.traced {
		p.pop(end)
	}
	d := end.Sub(start)
	p.byName[b.name] += d
	switch b.bucket {
	case bucketSetup:
		p.setup += d
	case bucketRun:
		p.wall += d
	}
}

// run is the sim.run boundary: it executes s to the horizon and accounts the
// simulated time and the event count, less the trace sampler's own events.
// ends are the transmit queues the sampler watches on a traced pass.
func (p *pass) run(s *sim.Sim, ends []*netsim.LinkEnd, horizon sim.Time) {
	before := s.Executed
	own := func() uint64 { return 0 }
	if p.traced {
		own = p.samples.attach(s, ends, horizon)
	}
	p.call(bSimRun, func() { s.Run(horizon) })
	p.simTime += horizon
	p.add("sim.events", s.Executed-before-own())
}

func (p *pass) add(name string, v uint64) { p.counts[name] += v }

func (p *pass) peak(name string, v uint64) {
	if v > p.peaks[name] {
		p.peaks[name] = v
	}
}

// addLinkStats folds one link direction's counters into the pass.
func (p *pass) addLinkStats(st netsim.LinkStats) {
	p.add("netsim.pkts_sent", st.Sent)
	p.add("netsim.pkts_delivered", st.Delivered)
	p.add("netsim.failure_drops", st.FailureDrops)
	p.add("netsim.congestion_drops", st.CongestionDrops)
}

// addDetector folds one detector's control-plane counters into the pass.
func (p *pass) addDetector(d *fancy.Detector) {
	st := d.Stats()
	p.add("fancy.ctl_msgs", d.CtlMsgsSent)
	p.add("fancy.ctl_bytes", d.CtlBytesSent)
	p.add("fancy.retransmits", st.Retransmits)
	p.add("fancy.sessions_discarded", st.SessionsDiscarded)
}
