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
	"fancy/internal/wire"
)

// hhTick closes one heavy-hitter measurement window on a port: encode the
// top-k digest, reset the sketch, deliver the frame, re-arm the timer.
func (d *Detector) hhTick(m *portMonitor, port int) {
	if m.hh == nil {
		return
	}
	rep := &hh.Report{Port: uint16(port), Epoch: d.epoch, Seq: m.hhSeq}
	m.hhSeq++
	rep.Entries = m.hh.TopK(DefaultHHTopK)
	rep.Packets, rep.Recircs = m.hh.Window()
	m.hh.Reset()
	d.stats.HHReports++
	if d.OnHHReport != nil {
		d.OnHHReport(port, hh.EncodeReport(rep))
	}
	m.hhTimer = d.s.ScheduleTimer(hhReportInterval, m.hhTickFn)
}

// Promote assigns entry a dynamic dedicated-counter slot on the monitored
// port and starts its counting FSM. The receiver side needs no
// coordination: the first Start for the slot's unit number instantiates a
// fresh receiver FSM there, exactly as for a static entry.
func (d *Detector) Promote(port int, entry netsim.EntryID) (int, error) {
	m, ok := d.monitors[port]
	if !ok {
		return 0, fmt.Errorf("fancy: port %d is not monitored", port)
	}
	if _, ok := d.slotByEntry[entry]; ok {
		return 0, fmt.Errorf("fancy: entry %d already holds a static dedicated slot", entry)
	}
	if _, ok := m.dyn[entry]; ok {
		return 0, fmt.Errorf("fancy: entry %d already promoted on port %d", entry, port)
	}
	if len(m.freeDyn) == 0 {
		return 0, fmt.Errorf("fancy: no free dynamic slot on port %d", port)
	}
	slot := m.freeDyn[0]
	m.freeDyn = m.freeDyn[1:]
	m.dyn[entry] = slot
	fsm := &senderFSM{
		det: d, port: port, kind: wire.KindDedicated, unit: uint16(slot),
		interval: d.cfg.ExchangeInterval,
		counters: &dedicatedSender{det: d, port: port, slot: slot, entry: entry},
	}
	m.dedicated[slot] = fsm
	d.stats.Promotions++
	d.s.After(0, fsm.startSession)
	return slot, nil
}

// Demote releases entry's dynamic slot on the port: the counting FSM is
// killed, the flag bit cleared, and the slot returned to the free list.
// The entry's traffic falls back to the hash-based tree. Stale control
// messages for the dead session are ignored (the slot dispatch is
// nil-guarded) and a later reuse of the slot resynchronizes the receiver
// on its first Start.
func (d *Detector) Demote(port int, entry netsim.EntryID) error {
	m, ok := d.monitors[port]
	if !ok {
		return fmt.Errorf("fancy: port %d is not monitored", port)
	}
	slot, ok := m.dyn[entry]
	if !ok {
		return fmt.Errorf("fancy: entry %d is not promoted on port %d", entry, port)
	}
	if fsm := m.dedicated[slot]; fsm != nil {
		fsm.kill()
		if fsm.linkDown {
			d.reportLinkUp(port)
		}
	}
	m.dedicated[slot] = nil
	delete(m.dyn, entry)
	m.out.Flags.Clear(slot)
	i := sort.SearchInts(m.freeDyn, slot)
	m.freeDyn = append(m.freeDyn, 0)
	copy(m.freeDyn[i+1:], m.freeDyn[i:])
	m.freeDyn[i] = slot
	d.stats.Demotions++
	return nil
}

// Promoted reports whether entry currently holds a dynamic slot on the
// port, and which.
func (d *Detector) Promoted(port int, entry netsim.EntryID) (int, bool) {
	m, ok := d.monitors[port]
	if !ok {
		return 0, false
	}
	slot, ok := m.dyn[entry]
	return slot, ok
}

// DynamicOccupancy returns the used and total dynamic slots of a port.
func (d *Detector) DynamicOccupancy(port int) (used, capacity int) {
	m, ok := d.monitors[port]
	if !ok {
		return 0, 0
	}
	return len(m.dyn), d.cfg.DynamicSlots
}

// PromotedEntries lists a port's dynamically promoted entries in
// ascending order (deterministic for reports and tests).
func (d *Detector) PromotedEntries(port int) []netsim.EntryID {
	m, ok := d.monitors[port]
	if !ok {
		return nil
	}
	out := make([]netsim.EntryID, 0, len(m.dyn))
	for e := range m.dyn {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
