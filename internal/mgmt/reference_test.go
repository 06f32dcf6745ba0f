package mgmt

// The closure-based management plane this package had before in-flight and
// probe-wait records were recycled, kept as the reference: a network that
// builds a closure per datagram and a pair-key string per Send over four
// name-keyed maps, and a heartbeat that builds a closure per probe attempt.
// Recycling is host-side memory reuse and nothing else, so the same Client
// and Server run over either must be the same run.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"fancy/internal/sim"
)

type closureNet struct {
	s   *sim.Sim
	cfg Config

	handlers    map[string]func(Dgram)
	rngs        map[string]*rand.Rand
	partitioned map[string]bool

	Stats NetStats
}

func newClosureNet(s *sim.Sim, cfg Config) *closureNet {
	return &closureNet{
		s: s, cfg: cfg.withDefaults(),
		handlers:    make(map[string]func(Dgram)),
		rngs:        make(map[string]*rand.Rand),
		partitioned: make(map[string]bool),
	}
}

func (n *closureNet) Register(name string, handler func(Dgram)) { n.handlers[name] = handler }
func (n *closureNet) Partition(name string)                     { n.partitioned[name] = true }
func (n *closureNet) Heal(name string)                          { delete(n.partitioned, name) }
func (n *closureNet) Partitioned(name string) bool              { return n.partitioned[name] }

// rng is the pair's stream from the constructor Network uses, so both
// networks make the same draws by construction.
func (n *closureNet) rng(from, to string) *rand.Rand {
	key := from + ">" + to
	r, ok := n.rngs[key]
	if !ok {
		r = pairStream(n.s, from, to)
		n.rngs[key] = r
	}
	return r
}

func (n *closureNet) backoff(from, to string, attempt int) sim.Time {
	return retryTimeout(attempt, n.rng(from, to).Float64())
}

func (n *closureNet) Send(d Dgram) {
	n.Stats.Sent++
	if n.Partitioned(d.From) || n.Partitioned(d.To) {
		n.Stats.PartitionDrops++
		return
	}
	rng := n.rng(d.From, d.To)
	if n.cfg.Loss > 0 && rng.Float64() < n.cfg.Loss {
		n.Stats.Lost++
		return
	}
	delay := n.cfg.Delay
	if n.cfg.Jitter > 0 {
		delay += sim.Time(rng.Int64N(int64(n.cfg.Jitter)))
	}
	n.deliver(d, delay)
	if n.cfg.Duplicate > 0 && rng.Float64() < n.cfg.Duplicate {
		n.Stats.Duplicated++
		n.deliver(d, delay+1+sim.Time(rng.Int64N(int64(dupDelayMax))))
	}
}

func (n *closureNet) deliver(d Dgram, after sim.Time) {
	n.s.After(after, func() {
		if n.Partitioned(d.To) { // partition started while in flight
			n.Stats.PartitionDrops++
			return
		}
		if h, ok := n.handlers[d.To]; ok {
			n.Stats.Delivered++
			h(d)
		}
	})
}

// closureProbe is Client.probe with the ack timeout as a closure.
func closureProbe(c *Client, seq uint64, attempt int) {
	c.net.Send(Dgram{From: c.name, To: c.srv, Kind: DgramHeartbeat, Seq: seq})
	c.s.After(ackTimeout, func() {
		if c.lastProbeAck >= seq {
			return
		}
		if attempt+1 >= maxAttempts {
			c.miss()
			return
		}
		c.Stats.ProbeRetries++
		closureProbe(c, seq, attempt+1)
	})
}

// newClosureClient is NewClient over the reference network, heartbeating
// through closureProbe.
func newClosureClient(s *sim.Sim, net *closureNet, name, srv string) *Client {
	c := &Client{
		s: s, net: net, name: name, srv: srv,
		nextSeq: 1, online: true,
		inflight: make(map[uint64]*pendingReport),
	}
	var heartbeat func()
	heartbeat = func() {
		c.Stats.Heartbeats++
		c.probeSeq++
		closureProbe(c, c.probeSeq, 0)
		c.s.After(HeartbeatInterval, heartbeat)
	}
	net.Register(name, c.onDgram)
	s.After(HeartbeatInterval, heartbeat)
	return c
}

// newClosureServer is NewServer over the reference network.
func newClosureServer(s *sim.Sim, net *closureNet, name string) *Server {
	srv := &Server{
		s: s, net: net, name: name,
		clients:   make(map[string]*clientTrack),
		calls:     make(map[uint64]*pendingCall),
		accepting: true,
	}
	net.Register(name, srv.onDgram)
	return srv
}

// delivery is one datagram reaching its handler.
type delivery struct {
	At       sim.Time
	From, To string
	Kind     DgramKind
	Seq      uint64
}

// fleetRun is everything a run lets an observer see.
type fleetRun struct {
	Log      []delivery
	Net      NetStats
	Clients  []ClientStats
	Servers  []ServerStats
	Reports  int // unique reports the servers passed up
	Calls    int // RPC callbacks run
	Executed uint64
}

// runFleet drives 3 servers and 11 clients for a simulated second over a
// lossy, duplicating, jittery channel: every client reports every 7 ms and
// rotates over the three servers; the first server is partitioned away for
// 300 ms and one client for 250 ms, and the second server polls a client by RPC. closures selects the reference
// network and heartbeat.
func runFleet(seed int64, closures bool) fleetRun {
	const servers, clients = 3, 11
	s := sim.New(seed)
	cfg := Config{Loss: 0.1, Duplicate: 0.05, Jitter: sim.Millisecond}
	var out fleetRun

	var net interface {
		fabric
		Register(string, func(Dgram))
		Partition(string)
		Heal(string)
	}
	var live *Network
	var ref *closureNet
	if closures {
		ref = newClosureNet(s, cfg)
		net = ref
	} else {
		live = NewNetwork(s, cfg)
		net = live
	}
	logged := func(h func(Dgram)) func(Dgram) {
		return func(d Dgram) {
			out.Log = append(out.Log, delivery{s.Now(), d.From, d.To, d.Kind, d.Seq})
			h(d)
		}
	}

	var srvs []*Server
	var eps []string
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("corr%d", i)
		var srv *Server
		if closures {
			srv = newClosureServer(s, ref, name)
		} else {
			srv = NewServer(s, live, name)
		}
		srv.OnReport = func(string, uint64, any) { out.Reports++ }
		net.Register(name, logged(srv.onDgram))
		srvs, eps = append(srvs, srv), append(eps, name)
	}
	var cls []*Client
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("sw%d", i)
		var c *Client
		if closures {
			c = newClosureClient(s, ref, name, eps[0])
		} else {
			c = NewClient(s, live, name, eps[0])
		}
		c.SetEndpoints(eps)
		c.OnCall = func(req any) (any, error) { return req, nil }
		net.Register(name, logged(c.onDgram))
		cls = append(cls, c)
		var report func()
		report = func() {
			c.Send(i)
			s.After(7*sim.Millisecond, report)
		}
		s.After(sim.Time(i)*sim.Millisecond, report)
	}

	s.After(300*sim.Millisecond, func() { net.Partition("corr0") })
	s.After(600*sim.Millisecond, func() { net.Heal("corr0") })
	s.After(400*sim.Millisecond, func() { net.Partition("sw3") })
	s.After(650*sim.Millisecond, func() { net.Heal("sw3") })
	var poll func()
	poll = func() {
		srvs[1].Call("sw2", "poll", func(any, error) { out.Calls++ })
		s.After(50*sim.Millisecond, poll)
	}
	s.After(0, poll)

	s.Run(sim.Second)
	if closures {
		out.Net = ref.Stats
	} else {
		out.Net = live.Stats
	}
	for _, c := range cls {
		out.Clients = append(out.Clients, c.Stats)
	}
	for _, srv := range srvs {
		out.Servers = append(out.Servers, srv.Stats)
	}
	out.Executed = s.Executed
	return out
}

// TestRecycledRunEqualsClosureReference is the differential test of the
// datagram lifecycle: over 50 seeds the recycled-record run and the
// closure-per-datagram reference deliver the same datagrams at the same
// instants, count the same, and execute the same number of events.
func TestRecycledRunEqualsClosureReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		got, want := runFleet(seed, false), runFleet(seed, true)
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				name := gv.Type().Field(i).Name
				if name == "Log" {
					t.Fatalf("seed %d: delivery logs differ (%d vs %d deliveries)", seed, len(got.Log), len(want.Log))
				}
				t.Fatalf("seed %d: %s differs:\n recycled  %+v\n reference %+v",
					seed, name, gv.Field(i).Interface(), wv.Field(i).Interface())
			}
		}
		if seed > 1 {
			continue
		}
		// The scenario must exercise what it claims to.
		n := got.Net
		var retries, probeRetries, rotations, offline uint64
		for _, c := range got.Clients {
			retries += c.Retries
			probeRetries += c.ProbeRetries
			rotations += c.Rotations
			offline += c.Offline
		}
		if n.Lost == 0 || n.Duplicated == 0 || n.PartitionDrops == 0 ||
			retries == 0 || probeRetries == 0 || rotations == 0 || offline == 0 || got.Calls == 0 || got.Reports == 0 {
			t.Fatalf("scenario too tame: %+v, %d retries, %d probe retries, %d rotations, %d offline, %d calls, %d reports",
				n, retries, probeRetries, rotations, offline, got.Calls, got.Reports)
		}
		if len(got.Log) != int(n.Delivered) {
			t.Fatalf("logged %d deliveries, the network counted %d", len(got.Log), n.Delivered)
		}
	}
}
