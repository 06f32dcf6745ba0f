package fancy

// The heavy-hitter stage and dynamic dedicated-slot management: the
// runtime half of the counter-allocation loop. The sketch (internal/hh)
// observes every data packet on a monitored port; hhTick closes each
// measurement window, hands the encoded top-k report to OnHHReport, and
// the switch agent's allocator answers with Promote/Demote calls.

import (
	"fmt"
	"sort"

	"fancy/internal/hh"
	"fancy/internal/netsim"
)

// hhTicker is a portMonitor as the sim.Actor of its heavy-hitter timer.
type hhTicker portMonitor

func (t *hhTicker) Fire() {
	m := (*portMonitor)(t)
	m.det.hhTick(m, m.port)
}

// hhTick closes one heavy-hitter measurement window on a port: encode the
// top-k digest, reset the sketch, deliver the frame, re-arm the timer. The
// report and the frame are the port's own buffers, refilled every window.
func (d *Detector) hhTick(m *portMonitor, port int) {
	if m.hh == nil {
		return
	}
	rep := &m.hhRep
	rep.Port, rep.Epoch, rep.Seq = uint16(port), d.epoch, m.hhSeq
	m.hhSeq++
	rep.Entries = m.hh.AppendTopK(rep.Entries[:0], DefaultHHTopK)
	rep.Packets, rep.Recircs = m.hh.Window()
	m.hh.Reset()
	d.stats.HHReports++
	if d.OnHHReport != nil {
		m.hhFrame = hh.AppendReport(m.hhFrame[:0], rep)
		d.OnHHReport(port, m.hhFrame)
	}
	m.hhTimer = d.s.ScheduleTimerActor(hhReportInterval, (*hhTicker)(m))
}

// Promote assigns entry a dynamic dedicated-counter slot on the monitored
// port and starts its counting FSM. The receiver side needs no
// coordination: the first Start for the slot's unit number instantiates a
// fresh receiver FSM there, exactly as for a static entry. A slot promoted
// again continues its session numbers: the downstream keeps its receiver.
func (d *Detector) Promote(port int, entry netsim.EntryID) (int, error) {
	m := d.monitor(port)
	if m == nil {
		return 0, fmt.Errorf("fancy: port %d is not monitored", port)
	}
	if slot, ok := m.slots[entry]; ok {
		if slot < len(d.cfg.HighPriority) {
			return 0, fmt.Errorf("fancy: entry %d already holds a static dedicated slot", entry)
		}
		return 0, fmt.Errorf("fancy: entry %d already promoted on port %d", entry, port)
	}
	if len(m.free) == 0 {
		return 0, fmt.Errorf("fancy: no free dynamic slot on port %d", port)
	}
	slot := m.free[0]
	m.free = m.free[1:]
	m.slots[entry] = slot
	m.dedicated[slot] = d.startDedicated(new(senderUnit), port, slot, entry, 0)
	m.dedicated[slot].session = m.demoted[slot-len(d.cfg.HighPriority)]
	d.stats.Promotions++
	return slot, nil
}

// Demote releases entry's dynamic slot on the port: the counting FSM is
// killed, the flag bit cleared, and the slot returned to the free list.
// The entry's traffic falls back to the hash-based tree. Stale control
// messages for the dead session are ignored (a free slot has no unit). The
// slot's session number is kept: its next Promote opens the session after
// it, which the receiver, still holding the old one, takes as new.
func (d *Detector) Demote(port int, entry netsim.EntryID) error {
	m := d.monitor(port)
	if m == nil {
		return fmt.Errorf("fancy: port %d is not monitored", port)
	}
	slot, ok := d.promotedSlot(m, entry)
	if !ok {
		return fmt.Errorf("fancy: entry %d is not promoted on port %d", entry, port)
	}
	fsm := m.dedicated[slot]
	fsm.kill()
	m.demoted[slot-len(d.cfg.HighPriority)] = fsm.session
	if fsm.linkDown {
		d.reportLinkUp(port)
	}
	m.dedicated[slot] = nil
	delete(m.slots, entry)
	m.out.Flags.Clear(slot)
	i := sort.SearchInts(m.free, slot)
	m.free = append(m.free, 0)
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = slot
	d.stats.Demotions++
	return nil
}

// promotedSlot returns entry's slot on the port if it is a dynamic one.
func (d *Detector) promotedSlot(m *portMonitor, entry netsim.EntryID) (int, bool) {
	slot, ok := m.slots[entry]
	return slot, ok && slot >= len(d.cfg.HighPriority)
}

// Promoted reports whether entry currently holds a dynamic slot on the
// port, and which.
func (d *Detector) Promoted(port int, entry netsim.EntryID) (int, bool) {
	if m := d.monitor(port); m != nil {
		return d.promotedSlot(m, entry)
	}
	return 0, false
}

// DynamicOccupancy returns the used and total dynamic slots of a port.
func (d *Detector) DynamicOccupancy(port int) (used, capacity int) {
	m := d.monitor(port)
	if m == nil {
		return 0, 0
	}
	return d.cfg.DynamicSlots - len(m.free), d.cfg.DynamicSlots
}

// PromotedEntries lists a port's dynamically promoted entries in
// ascending order (deterministic for reports and tests).
func (d *Detector) PromotedEntries(port int) []netsim.EntryID {
	m := d.monitor(port)
	if m == nil {
		return nil
	}
	out := make([]netsim.EntryID, 0, d.cfg.DynamicSlots-len(m.free))
	for e := range m.slots {
		if _, ok := d.promotedSlot(m, e); ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
