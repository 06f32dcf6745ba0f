package fancy

import (
	"fmt"

	"fancy/internal/fancy/tree"
	"fancy/internal/hh"
	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/wire"
)

// Outputs are FANcY's per-port result structures (Figure 1): flagged
// dedicated entries and the Bloom filter of flagged hash paths.
type Outputs struct {
	Flags *FlagArray
	Bloom *PathBloom
}

// Detector attaches FANcY to one switch. Call MonitorPort on the upstream
// switch for each egress port to watch, and ListenPort on the downstream
// switch for the matching ingress port. A switch commonly does both, for
// different ports (§4.3: FANcY is designed to be deployed at every switch).
type Detector struct {
	s   *sim.Sim
	sw  *netsim.Switch
	cfg Config

	// Layout is the memory plan computed from the config.
	Layout Layout

	// hasher maps entries to tree hash paths; every monitored port's tree
	// unit, in every incarnation, hashes with it.
	hasher *tree.Hasher

	// slotByEntry holds the static slots for DedicatedSlot; each port's
	// portMonitor.slots is what the data path reads.
	slotByEntry map[netsim.EntryID]int

	// monitors, listeners and peerAddr are indexed by port, one element
	// per port of the switch; a nil monitor or listener is a port the
	// detector does not watch on that side.
	monitors  []*portMonitor
	listeners []*portListener

	// ownAddr and peerAddr support partial deployments (§4.3): when the
	// counterpart switch is several hops away, control messages carry a
	// destination address so non-FANcY transit switches forward them, and
	// this detector only consumes control packets addressed to it.
	ownAddr  uint32
	peerAddr []uint32

	// epoch is this detector incarnation's generation number, stamped into
	// every control message (wire.Header.Epoch). Restart increments it, so
	// control messages referring to pre-restart counter state are
	// recognizably stale and discarded by both sides. Zero is reserved so
	// an all-zero header never matches a live epoch.
	epoch uint8

	stats DetectorStats

	// ctlScratch is the reusable parse target for inbound control messages
	// (see OnIngress); its slice capacity is recycled across messages.
	ctlScratch wire.Message

	// ctlPkts issues the control packets this detector sends; netsim brings
	// each one back, Ctl buffer included, when the peer has consumed it.
	// ctlMax is the largest message marshalled so far: the capacity a new
	// Ctl buffer gets.
	ctlPkts netsim.PacketPool
	ctlMax  int

	// OnEvent receives every detection event (required for experiments;
	// may be nil).
	OnEvent func(Event)

	// OnHHReport receives the encoded heavy-hitter report of a monitored
	// port once per hhReportInterval (nil when cfg.HH is nil or nobody
	// subscribed). The frame decodes with hh.DecodeReport (or
	// hh.DecodeReportInto); the switch agent's counter-allocation
	// controller is the intended consumer. The frame is borrowed for the
	// call: the detector rewrites it on the port's next tick, so copy it to
	// retain it.
	OnHHReport func(port int, frame []byte)

	// Control-plane overhead accounting (§5.3).
	CtlMsgsSent  uint64
	CtlBytesSent uint64
}

// unitTable holds one port's sub-state-machines (Appendix B.2) on either
// side of a session, found by wire unit number without a hash lookup.
type unitTable[F any] struct {
	// dedicated is indexed by slot, which is also the wire unit number:
	// the static slots, then cfg.DynamicSlots promoted ones (nil when
	// free, or on the receiver side before the unit's first Start). A
	// static slot's FSM lives in its port's block (senderUnit,
	// receiverUnit), one allocation per port; a promoted one is its own
	// object. A record serves one incarnation: a killed sender FSM's
	// sessionOpen cannot be cancelled and may still be queued, so Restart
	// and Promote build fresh records rather than reset old ones.
	dedicated []*F
	tree      *F
	custom    *F // the custom session's unit, or nil
}

// cell returns where unit u's FSM is held and the unit's session kind, or
// nil if u names no unit of the table.
func (t *unitTable[F]) cell(u uint16) (**F, wire.SessionKind) {
	switch {
	case u == wire.TreeUnit:
		return &t.tree, wire.KindTree
	case u == customUnitBase:
		return &t.custom, wire.KindCustom
	case int(u) < len(t.dedicated):
		return &t.dedicated[u], wire.KindDedicated
	}
	return nil, 0
}

// unit returns the FSM of wire unit u, or nil (no such unit, or an empty
// cell such as a free dynamic slot).
func (t *unitTable[F]) unit(u uint16) *F {
	if c, _ := t.cell(u); c != nil {
		return *c
	}
	return nil
}

// each calls fn for every FSM in the table: the dedicated slots in order,
// then the tree unit, then the custom unit.
func (t *unitTable[F]) each(fn func(*F)) {
	for _, f := range t.dedicated {
		if f != nil {
			fn(f)
		}
	}
	if t.tree != nil {
		fn(t.tree)
	}
	if t.custom != nil {
		fn(t.custom)
	}
}

// portMonitor is the sender side for one monitored egress port.
type portMonitor struct {
	unitTable[senderFSM]
	// slots maps every entry holding a dedicated slot on this port, static
	// and promoted alike; free lists the free dynamic slots in ascending
	// order.
	slots map[netsim.EntryID]int
	free  []int
	out   Outputs

	// Heavy-hitter stage state (cfg.HH != nil). hhRep and hhFrame are the
	// report and its encoding, refilled by every tick; det and port are
	// what the tick, an hhTicker, reads its monitor by.
	hh      *hh.Sketch
	hhTimer sim.Timer
	hhSeq   uint32
	hhRep   hh.Report
	hhFrame []byte
	det     *Detector
	port    int

	// downUnits counts sub-state-machines currently reporting the link as
	// unresponsive; EventLinkDown fires on the 0→1 transition only, so a
	// port raises one alarm however many of its units time out.
	downUnits int
}

// portListener is the receiver side for one ingress port. FSMs are created
// on demand when the first Start for a unit arrives; a Start for a unit the
// table has no cell for is ignored.
type portListener struct {
	unitTable[receiverFSM]
	customRecv CustomReceiver // ListenCustom's downstream half, or nil
	// block holds the static slots' receiver records; the first Start of
	// any of them allocates it, and Restart drops it.
	block []receiverUnit
}

// NewDetector validates cfg (running the §4.3 input translation) and hooks
// the detector into the switch pipelines.
func NewDetector(s *sim.Sim, sw *netsim.Switch, cfg Config) (*Detector, error) {
	layout, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg.Tree = layout.Tree
	d := &Detector{
		s: s, sw: sw, cfg: cfg, Layout: layout, epoch: 1,
		hasher:      tree.NewHasher(cfg.Tree, cfg.TreeSeed),
		slotByEntry: make(map[netsim.EntryID]int, len(cfg.HighPriority)),
		monitors:    make([]*portMonitor, sw.NumPorts()),
		listeners:   make([]*portListener, sw.NumPorts()),
		peerAddr:    make([]uint32, sw.NumPorts()),
	}
	for i, e := range cfg.HighPriority {
		if _, dup := d.slotByEntry[e]; dup {
			return nil, fmt.Errorf("fancy: duplicate high-priority entry %d", e)
		}
		d.slotByEntry[e] = i
	}
	if cfg.DynamicSlots < 0 {
		return nil, fmt.Errorf("fancy: negative DynamicSlots")
	}
	// Dedicated slots double as wire unit numbers; they must stay below
	// the custom-unit range.
	if total := len(cfg.HighPriority) + cfg.DynamicSlots; total >= int(customUnitBase) {
		return nil, fmt.Errorf("fancy: %d dedicated slots exceed the unit number space", total)
	}
	sw.AddIngressHook(d)
	sw.AddEgressHook(d)
	sw.RefreshEgressHooks()
	return d, nil
}

// Config returns the effective configuration (defaults filled, tree sized).
func (d *Detector) Config() Config { return d.cfg }

// checkPort panics unless the switch has port. A session on a port the
// switch lacks would lose every control message to Switch.forward's
// NoRoute count without a word, so the mistake is reported where it is
// made, as Switch.Attach reports it.
func (d *Detector) checkPort(port int) {
	if port < 0 || port >= len(d.monitors) {
		panic(fmt.Sprintf("fancy: switch %s has no port %d", d.sw.Name(), port))
	}
}

// monitor returns the sender side of port, or nil if the port is not
// monitored (or not a port of the switch).
func (d *Detector) monitor(port int) *portMonitor {
	if uint(port) < uint(len(d.monitors)) {
		return d.monitors[port]
	}
	return nil
}

// listener returns the receiver side of port, or nil if nobody listens
// there.
func (d *Detector) listener(port int) *portListener {
	if uint(port) < uint(len(d.listeners)) {
		return d.listeners[port]
	}
	return nil
}

// SetOwnAddr gives the detector an address for remote (multi-hop) counting
// sessions: it then consumes only control packets destined to that address
// and forwards the rest, so it can sit on the transit path of other
// detectors' sessions.
func (d *Detector) SetOwnAddr(addr uint32) { d.ownAddr = addr }

// SetPeerAddr sets the control-message destination for a monitored or
// listening port. Zero (the default) addresses the adjacent switch
// directly; a non-zero address lets non-FANcY transit switches route the
// messages in a partial deployment (§4.3).
func (d *Detector) SetPeerAddr(port int, addr uint32) {
	d.checkPort(port)
	d.peerAddr[port] = addr
}

// MonitorPort starts sender FSMs for an egress port: one per dedicated
// entry plus one for the tree. Session starts are staggered across the
// exchange interval so control messages do not burst.
func (d *Detector) MonitorPort(port int) *Outputs {
	d.checkPort(port)
	if m := d.monitors[port]; m != nil {
		return &m.out
	}
	total := len(d.cfg.HighPriority) + d.cfg.DynamicSlots
	m := &portMonitor{
		det: d, port: port,
		out: Outputs{
			Flags: NewFlagArray(total),
			Bloom: NewPathBloom(DefaultBloomCells),
		},
		free: make([]int, 0, d.cfg.DynamicSlots),
	}
	m.dedicated = make([]*senderFSM, total)
	d.startMonitor(m, port)
	d.monitors[port] = m
	return &m.out
}

// startMonitor (re)builds and launches a port's sender FSMs. Session starts
// are staggered across the exchange interval so control messages do not
// burst. Restart reuses it with the existing portMonitor so caller-held
// *Outputs pointers stay valid; the static slots get a new block each call.
func (d *Detector) startMonitor(m *portMonitor, port int) {
	n, total := len(d.cfg.HighPriority), len(m.dedicated)
	m.slots = make(map[netsim.EntryID]int, total)
	block := make([]senderUnit, n)
	for slot, entry := range d.cfg.HighPriority {
		delay := sim.Time(int64(d.cfg.ExchangeInterval) * int64(slot) / int64(max(n, 1)))
		m.dedicated[slot] = d.startDedicated(&block[slot], port, slot, entry, delay)
		m.slots[entry] = slot
	}
	// Dynamic slots start free; Promote fills them. After a restart the
	// dataplane state is gone, so any previous assignment is forgotten —
	// the allocation controller relearns from fresh reports (it notices
	// the epoch change).
	m.free = m.free[:0]
	for slot := n; slot < total; slot++ {
		m.dedicated[slot] = nil
		m.free = append(m.free, slot)
	}
	if d.cfg.HH != nil {
		p := d.cfg.HH.Sketch
		p.Seed = hh.PortSeed(p.Seed, port)
		m.hh = hh.NewSketch(p)
		m.hhTimer.Stop()
		m.hhTimer = d.s.ScheduleTimerActor(hhReportInterval, (*hhTicker)(m))
	}
	m.tree = d.startUnit(new(senderFSM), port, wire.KindTree, wire.TreeUnit, d.cfg.ZoomingInterval, 0, d.newTreeSender(port))
	if c := m.custom; c != nil {
		m.custom = d.startUnit(new(senderFSM), port, wire.KindCustom, customUnitBase, c.interval, 0, c.counters)
	}
}

// startUnit makes fsm, a record no queued event refers to, the sender FSM
// of one unit and opens its first session after delay.
func (d *Detector) startUnit(fsm *senderFSM, port int, kind wire.SessionKind, unit uint16, interval, delay sim.Time, c senderCounters) *senderFSM {
	*fsm = senderFSM{det: d, port: port, kind: kind, unit: unit, interval: interval, counters: c}
	d.s.AfterActor(delay, (*sessionOpen)(fsm))
	return fsm
}

// startDedicated starts, in the fresh record u, the unit counting entry in
// a dedicated slot.
func (d *Detector) startDedicated(u *senderUnit, port, slot int, entry netsim.EntryID, delay sim.Time) *senderFSM {
	u.ctr = dedicatedSender{det: d, port: port, slot: slot, entry: entry}
	return d.startUnit(&u.fsm, port, wire.KindDedicated, uint16(slot), d.cfg.ExchangeInterval, delay, &u.ctr)
}

// Restart models a device reboot: all protocol and counter state is wiped,
// the epoch is bumped so in-flight control messages from the previous
// incarnation are recognizably stale, and every monitored port starts fresh
// sessions. The peer resynchronizes on the first new-epoch Start it sees.
// Configuration, port wiring and registered custom units survive (they live
// in the control plane, not the reset dataplane state).
func (d *Detector) Restart() {
	d.epoch++
	if d.epoch == 0 {
		d.epoch = 1 // zero is reserved
	}
	d.stats.Restarts++
	// Restarted sender FSMs are scheduled below, port by port in
	// ascending order, so event sequence numbers stay reproducible.
	for port, m := range d.monitors {
		if m == nil {
			continue
		}
		m.each((*senderFSM).kill)
		m.downUnits = 0
		d.Acknowledge(port) // a reboot wipes the output registers too
		d.startMonitor(m, port)
	}
	for _, l := range d.listeners {
		if l == nil {
			continue
		}
		l.each((*receiverFSM).kill)
		clear(l.dedicated)
		l.tree, l.custom, l.block = nil, nil, nil
	}
}

// ListenPort enables receiver FSMs for an ingress port. The port accepts
// the units a sender with this detector's configuration opens: its
// dedicated slots, the tree unit and the custom unit.
func (d *Detector) ListenPort(port int) {
	d.checkPort(port)
	if d.listeners[port] == nil {
		l := &portListener{}
		l.dedicated = make([]*receiverFSM, len(d.cfg.HighPriority)+d.cfg.DynamicSlots)
		d.listeners[port] = l
	}
}

// Outputs returns the result structures of a monitored port (nil if the
// port is not monitored).
func (d *Detector) Outputs(port int) *Outputs {
	if m := d.monitor(port); m != nil {
		return &m.out
	}
	return nil
}

// outputs is the internal non-nil accessor used by counter machinery.
func (d *Detector) outputs(port int) *Outputs {
	return &d.monitors[port].out
}

// Acknowledge clears a monitored port's output structures (the flag array
// and the path Bloom filter) after the operator has acted on them — e.g.
// once the faulty hardware is repaired or the traffic rerouted. Ongoing
// mismatches will re-flag within a session.
func (d *Detector) Acknowledge(port int) {
	m := d.monitor(port)
	if m == nil {
		return
	}
	for i := 0; i < m.out.Flags.Len(); i++ {
		m.out.Flags.Clear(i)
	}
	m.out.Bloom.Reset()
}

// Flagged reports whether FANcY has flagged entry on the monitored port —
// through its dedicated flag bit if the entry is high priority, otherwise
// through the hash-path Bloom filter.
func (d *Detector) Flagged(port int, entry netsim.EntryID) bool {
	m := d.monitor(port)
	if m == nil {
		return false
	}
	if slot, ok := m.slots[entry]; ok {
		return m.out.Flags.Get(slot)
	}
	return m.out.Bloom.Contains(d.hasher.Path(uint64(entry), nil))
}

// Implicates reports whether ev names entry — the one reading of a report
// every consumer shares. A dedicated mismatch names its own entry; a tree
// leaf names the entries whose hash path on ev.Port is ev.Path and which the
// tree still counts there (an entry in a static or promoted slot is counted
// by its own unit instead); a uniform failure names every entry. An event
// on an unmonitored port, or of any other kind, names none.
func (d *Detector) Implicates(ev Event, entry netsim.EntryID) bool {
	m := d.monitor(ev.Port)
	if m == nil {
		return false
	}
	switch ev.Kind {
	case EventDedicated:
		return ev.Entry == entry
	case EventTreeLeaf:
		if _, dedicated := m.slots[entry]; dedicated || len(ev.Path) != d.cfg.Tree.Depth {
			return false
		}
		for l, idx := range ev.Path {
			if d.hasher.Index(uint64(entry), l) != idx {
				return false
			}
		}
		return true
	case EventUniform:
		return true
	}
	return false
}

// EntryPath exposes the tree hash path of an entry on a monitored port,
// for evaluation tooling.
func (d *Detector) EntryPath(port int, entry netsim.EntryID) []uint16 {
	if d.monitor(port) != nil {
		return d.hasher.Path(uint64(entry), nil)
	}
	return nil
}

// DedicatedSlot returns the flag-array slot of a high-priority entry.
func (d *Detector) DedicatedSlot(entry netsim.EntryID) (int, bool) {
	s, ok := d.slotByEntry[entry]
	return s, ok
}

// SessionsCompleted sums completed counting sessions across a port's live
// units. It is not monotone: a demoted dynamic slot's sessions leave the
// sum with its unit, and Restart starts every unit's count again at zero.
func (d *Detector) SessionsCompleted(port int) uint64 {
	m := d.monitor(port)
	if m == nil {
		return 0
	}
	var n uint64
	for _, f := range m.dedicated {
		if f != nil {
			n += f.SessionsCompleted
		}
	}
	return n + m.tree.SessionsCompleted
}

// DetectorStats are cumulative robustness counters: what the detector shrugs
// off (corrupted control messages, retransmissions) and the lifecycle events
// it raises. They complement the per-unit accuracy outputs.
type DetectorStats struct {
	// CtlCorrupted counts control messages dropped at ingress because they
	// failed wire validation (checksum, version, framing), and Starts the
	// addressed unit cannot hold (another unit's kind, zoom targets outside
	// the configured tree).
	CtlCorrupted uint64
	// Retransmits counts control retransmission timer firings across all
	// sender units, including degraded-state probes.
	Retransmits uint64
	// LinkDownEvents and LinkUpEvents count EventLinkDown/EventLinkUp
	// emissions across all ports.
	LinkDownEvents uint64
	LinkUpEvents   uint64
	// Restarts counts Restart calls (device reboots).
	Restarts uint64
	// SessionsDiscarded is always zero: the detector compares every
	// session, and the fleet's correlator discards congested evidence
	// instead (§4.3 footnote 2). It stays while benchmark/ and pinned
	// outputs print it.
	SessionsDiscarded uint64
	// HHReports counts heavy-hitter report windows closed across all ports.
	HHReports uint64
	// Promotions and Demotions count dynamic dedicated-slot assignments
	// and releases across all ports.
	Promotions uint64
	Demotions  uint64
}

// Stats returns a snapshot of the detector's robustness counters.
func (d *Detector) Stats() DetectorStats { return d.stats }

// Epoch returns the detector's current generation number (bumped by
// Restart).
func (d *Detector) Epoch() uint8 { return d.epoch }

func (d *Detector) emit(ev Event) {
	if d.OnEvent != nil {
		d.OnEvent(ev)
	}
}

// reportLinkDown aggregates per-unit timeout reports into one link-down
// event per port.
func (d *Detector) reportLinkDown(port int) {
	m := d.monitors[port]
	m.downUnits++
	if m.downUnits == 1 {
		d.stats.LinkDownEvents++
		d.emit(Event{Time: d.s.Now(), Port: port, Kind: EventLinkDown})
	}
}

// reportLinkUp retracts one unit's down report; when the last down unit of a
// port recovers, the port announces EventLinkUp — counting has resumed.
func (d *Detector) reportLinkUp(port int) {
	m := d.monitors[port]
	if m.downUnits == 0 {
		return
	}
	m.downUnits--
	if m.downUnits == 0 {
		d.stats.LinkUpEvents++
		d.emit(Event{Time: d.s.Now(), Port: port, Kind: EventLinkUp})
	}
}

// LinkDown reports whether any of the port's units currently considers the
// link unresponsive.
func (d *Detector) LinkDown(port int) bool {
	m := d.monitor(port)
	return m != nil && m.downUnits > 0
}

// sendControl marshals a control message into a recycled packet's Ctl buffer
// and injects it out of port. Control packets occupy at least a
// minimum-size Ethernet frame (64 B), the figure the paper's overhead
// analysis uses.
func (d *Detector) sendControl(port int, m *wire.Message) {
	pkt := d.ctlPkts.Get()
	n := m.WireSize()
	d.ctlMax = max(d.ctlMax, n)
	if cap(pkt.Ctl) < n {
		// One allocation, not Marshal's header-then-payload growth, sized
		// so a recycled packet later carrying the biggest Report seen (a
		// tree snapshot) is not re-allocated.
		pkt.Ctl = make([]byte, 0, d.ctlMax)
	}
	pkt.Ctl = m.Marshal(pkt.Ctl)
	size := len(pkt.Ctl)
	if size < 64 {
		size = 64
	}
	pkt.Proto, pkt.Entry, pkt.Size = netsim.ProtoFancy, netsim.InvalidEntry, size
	pkt.Src, pkt.Dst = d.ownAddr, d.peerAddr[port]
	d.CtlMsgsSent++
	d.CtlBytesSent += uint64(size)
	d.sw.Inject(pkt, port)
}

// OnIngress implements netsim.IngressHook: it consumes FANcY control
// messages and counts tagged data packets before the traffic manager.
func (d *Detector) OnIngress(pkt *netsim.Packet, port int) bool {
	if pkt.Proto == netsim.ProtoFancy {
		if pkt.Dst != 0 && pkt.Dst != d.ownAddr {
			return false // someone else's session in transit: forward it
		}
		// Parse into the per-detector scratch message: control handling is
		// synchronous and the one retaining consumer (pipelinedReceiver's
		// zoom configuration) copies what it keeps, so the scratch — and
		// its Counters/Targets capacity — is reused for every message.
		m := &d.ctlScratch
		_, err := wire.UnmarshalInto(pkt.Ctl, m)
		if err != nil {
			// Corrupted control message (failed checksum or malformed
			// framing): drop it and let the stop-and-wait retransmission
			// recover. Counted so operators can see a lossy control plane.
			d.stats.CtlCorrupted++
			return true
		}
		d.handleControl(m, port)
		return true
	}
	if pkt.Tagged {
		if l := d.listener(port); l != nil {
			if fsm := l.unit(unitOf(pkt)); fsm != nil {
				fsm.onIngress(pkt)
			}
			// Strip the tag: it is meaningful on this link only.
			pkt.Tagged = false
			pkt.Size -= wire.TagSize
		}
	}
	return false
}

func unitOf(pkt *netsim.Packet) uint16 {
	switch pkt.TagKind {
	case wire.KindTree:
		return wire.TreeUnit
	case wire.KindCustom:
		// Tags carry no unit number, so a port supports one custom unit.
		return customUnitBase
	default:
		return pkt.Tag.DedicatedID()
	}
}

func (d *Detector) handleControl(m *wire.Message, port int) {
	switch m.Type {
	case wire.MsgStart, wire.MsgStop:
		l := d.listener(port)
		if l == nil {
			return // not listening on this port
		}
		c, kind := l.cell(m.Unit)
		if c == nil {
			return // a unit beyond this detector's slots
		}
		if m.Type == wire.MsgStart && (m.Kind != kind || kind == wire.KindTree && !d.treeHolds(m.Targets)) {
			// A Start its unit cannot hold — another unit's kind, or zoom
			// targets outside the configured tree — is dropped like one
			// that fails wire validation.
			d.stats.CtlCorrupted++
			return
		}
		fsm := *c
		if fsm == nil {
			if m.Type != wire.MsgStart {
				return // Stop for an unknown session
			}
			fsm = d.newReceiverFSM(l, port, m.Unit, kind)
			if fsm == nil {
				return // custom session without a registered receiver
			}
			*c = fsm
		}
		fsm.onControl(m)
	case wire.MsgStartACK, wire.MsgReport:
		// A free dynamic slot has no unit: a straggler ACK or Report for
		// a demoted entry's dead session is simply stale.
		if mon := d.monitor(port); mon != nil {
			if fsm := mon.unit(m.Unit); fsm != nil {
				fsm.onControl(m)
			}
		}
	}
}

// newReceiverFSM builds the receiver FSM of unit, whose cell is empty; kind
// is the cell's, and it alone picks the counters. A static dedicated unit
// takes its record from the port's block: each cell is filled once per
// incarnation, so no record is handed out twice.
func (d *Detector) newReceiverFSM(l *portListener, port int, unit uint16, kind wire.SessionKind) *receiverFSM {
	var fsm *receiverFSM
	switch kind {
	case wire.KindTree:
		fsm = &receiverFSM{counters: d.newTreeReceiver()}
	case wire.KindCustom:
		if l.customRecv == nil {
			return nil
		}
		fsm = &receiverFSM{counters: &customReceiverAdapter{l.customRecv}}
	default:
		var u *receiverUnit
		if n := len(d.cfg.HighPriority); int(unit) < n {
			if l.block == nil {
				l.block = make([]receiverUnit, n)
			}
			u = &l.block[unit]
		} else {
			u = new(receiverUnit)
		}
		u.fsm.counters, u.fsm.lastReport = &u.ctr, u.report[:0]
		fsm = &u.fsm
	}
	fsm.det, fsm.port, fsm.kind, fsm.unit = d, port, kind, unit
	return fsm
}

// OnEgress implements netsim.EgressHook: it counts and tags data packets
// after the traffic manager on monitored ports.
func (d *Detector) OnEgress(pkt *netsim.Packet, port int) {
	if pkt.Proto == netsim.ProtoFancy {
		return
	}
	m := d.monitor(port)
	if m == nil {
		return
	}
	if pkt.Entry == netsim.InvalidEntry {
		return // unclassified traffic (e.g. reverse ACKs) is not monitored
	}
	// The heavy-hitter stage sits ahead of the counting logic in the
	// pipeline and observes every classified data packet — including
	// already-dedicated traffic, so a promoted prefix keeps appearing in
	// reports while it stays hot (the allocator skips pinned prefixes).
	if m.hh != nil {
		m.hh.Observe(pkt.Entry)
	}
	// A packet carries at most one 2-byte tag, so it is counted by exactly
	// one session per link. Custom sessions take precedence over the
	// standard counting (they exist to analyze traffic the operator
	// singled out; see MonitorCustom).
	if m.custom != nil && m.custom.onEgress(pkt) {
		return
	}
	if slot, ok := m.slots[pkt.Entry]; ok {
		m.dedicated[slot].onEgress(pkt)
		return
	}
	m.tree.onEgress(pkt)
}
