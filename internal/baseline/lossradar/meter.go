package lossradar

// An executable LossRadar meter pair on the netsim substrate: the upstream
// and downstream switches each maintain an IBF per measurement batch (the
// packet carries its batch number, as in LossRadar's design, so in-flight
// packets count into the right batch); the "controller" extracts each
// batch one interval after it closes, subtracts the filters, and peels out
// the exact identities of the lost packets. With cells sized for low loss
// (Table 2's constraint) the decode stalls as soon as a batch's losses
// exceed the filter — the executable form of §2.3's argument.

import (
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

const meterRing = 4

// MeterPair instruments one link direction with per-batch IBFs extracted
// every Interval.
type MeterPair struct {
	s        *sim.Sim
	cells    int
	interval sim.Time

	batches [meterRing]meterBatch
	nextID  uint64

	// Batches / DecodedBatches / StalledBatches count extraction rounds
	// with traffic and their outcomes; LostRecovered accumulates the
	// per-entry losses the controller reconstructed.
	Batches        uint64
	DecodedBatches uint64
	StalledBatches uint64
	LostRecovered  map[netsim.EntryID]uint64
}

type meterBatch struct {
	id       int64
	up, down *IBF
	entryOf  map[uint64]netsim.EntryID
	inserts  int
}

// NewMeterPair builds a meter pair with the given IBF cells per side and
// extraction interval (the paper's LossRadar uses 10 ms batches).
func NewMeterPair(s *sim.Sim, cells int, interval sim.Time) *MeterPair {
	m := &MeterPair{
		s: s, cells: cells, interval: interval,
		LostRecovered: make(map[netsim.EntryID]uint64),
	}
	for i := range m.batches {
		m.batches[i] = meterBatch{id: int64(i) - meterRing, up: New(cells), down: New(cells),
			entryOf: make(map[uint64]netsim.EntryID)}
	}
	// Batch 0 closes at interval; extract it one interval later.
	s.After(2*interval, func() { m.extract(0) })
	return m
}

func (m *MeterPair) batch(id int64) *meterBatch {
	b := &m.batches[id%meterRing]
	if b.id != id {
		// First touch of this batch slot in its new generation.
		b.id = id
		b.up = New(m.cells)
		b.down = New(m.cells)
		b.entryOf = make(map[uint64]netsim.EntryID)
		b.inserts = 0
	}
	return b
}

// OnEgress implements netsim.EgressHook at the upstream switch. The
// packet's digest (in hardware, a hash of immutable header fields; here
// the simulator packet identity) goes into the current batch's IBF, and
// the batch number rides the packet so the downstream inserts the same
// digest into the same batch despite in-flight delay.
func (m *MeterPair) OnEgress(pkt *netsim.Packet, port int) {
	if pkt.Proto == netsim.ProtoFancy || pkt.Entry == netsim.InvalidEntry {
		return
	}
	id := int64(m.s.Now() / m.interval)
	b := m.batch(id)
	m.nextID++
	if pkt.ID == 0 {
		pkt.ID = m.nextID
	}
	pkt.ProbeWindow = id + 1 // 0 means unstamped
	b.up.Insert(pkt.ID)
	b.entryOf[pkt.ID] = pkt.Entry
	b.inserts++
}

// OnIngress implements netsim.IngressHook at the downstream switch.
func (m *MeterPair) OnIngress(pkt *netsim.Packet, port int) bool {
	if pkt.ProbeWindow == 0 {
		return false
	}
	id := pkt.ProbeWindow - 1
	pkt.ProbeWindow = 0
	b := &m.batches[id%meterRing]
	if b.id == id {
		b.down.Insert(pkt.ID)
	}
	return false
}

// extract plays the controller for one closed batch.
func (m *MeterPair) extract(id int64) {
	b := &m.batches[id%meterRing]
	if b.id == id && b.inserts > 0 {
		m.Batches++
		diff := b.up
		if err := diff.Subtract(b.down); err == nil {
			if lost, err := diff.Decode(); err == nil {
				m.DecodedBatches++
				for _, pid := range lost {
					if e, ok := b.entryOf[pid]; ok {
						m.LostRecovered[e]++
					}
				}
			} else {
				m.StalledBatches++
			}
		}
	}
	m.s.After(m.interval, func() { m.extract(id + 1) })
}
