// Package blink implements a simplified Blink [Holterbach et al., NSDI'19]
// failure detector, the in-switch baseline the FANcY paper discusses in
// §2.3. Blink selects a small number of TCP flows per prefix (64 in the
// paper) and infers a failure when the majority of them retransmit within
// an 800 ms window.
//
// Blink targets failures that affect ALL flows crossing a link. The FANcY
// paper's §2.3 argument — reproduced by this package's tests and the
// ablation experiment — is that Blink fundamentally cannot detect gray
// failures hitting a minority of the monitored flows: with fewer than a
// majority retransmitting, the vote never fires, and monitoring more flows
// is impractical on switch hardware.
package blink

import (
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// The detector runs on the paper's parameters.
const (
	// maxFlows is the number of flows monitored per prefix.
	maxFlows = 64
	// window is the retransmission vote window.
	window = 800 * sim.Millisecond
	// majority is the fraction of monitored flows that must retransmit
	// within window to infer a failure.
	majority = 0.5
	// evictAfter replaces flows idle longer than this, keeping the
	// monitored set populated with active flows.
	evictAfter = 2 * sim.Second
)

// flowState tracks one monitored flow.
type flowState struct {
	maxSeq      int64 // highest sequence end observed
	lastSeen    sim.Time
	lastRetrans sim.Time
}

// Detector monitors one prefix's flows through a switch ingress. Attach
// with sw.AddIngressHook.
type Detector struct {
	s     *sim.Sim
	entry netsim.EntryID

	flows map[netsim.FlowID]*flowState

	// FailureAt is the first time the majority vote fired (0 = never).
	FailureAt sim.Time
	// Votes counts how many windows fired.
	Votes uint64

	MonitoredFlows int
	Retransmits    uint64
}

// New creates a Blink detector for one prefix.
func New(s *sim.Sim, entry netsim.EntryID) *Detector {
	return &Detector{s: s, entry: entry, flows: make(map[netsim.FlowID]*flowState)}
}

// OnIngress implements netsim.IngressHook: it observes forward TCP data
// packets of the monitored prefix.
func (d *Detector) OnIngress(pkt *netsim.Packet, port int) bool {
	if pkt.Proto != netsim.ProtoTCP || pkt.Entry != d.entry || pkt.Len == 0 {
		return false
	}
	now := d.s.Now()
	st, ok := d.flows[pkt.Flow]
	if !ok {
		if len(d.flows) >= maxFlows {
			if !d.evictIdle(now) {
				return false // monitored set full of active flows
			}
		}
		st = &flowState{}
		d.flows[pkt.Flow] = st
		if len(d.flows) > d.MonitoredFlows {
			d.MonitoredFlows = len(d.flows)
		}
	}
	st.lastSeen = now
	end := pkt.Seq + int64(pkt.Len)
	if end <= st.maxSeq {
		// Sequence space already seen: a retransmission.
		st.lastRetrans = now
		d.Retransmits++
		d.vote(now)
	} else {
		st.maxSeq = end
	}
	return false
}

func (d *Detector) evictIdle(now sim.Time) bool {
	for id, st := range d.flows {
		if now-st.lastSeen > evictAfter {
			delete(d.flows, id)
			return true
		}
	}
	return false
}

// vote checks the majority condition over the sliding window.
func (d *Detector) vote(now sim.Time) {
	if len(d.flows) == 0 {
		return
	}
	retrans := 0
	for _, st := range d.flows {
		if st.lastRetrans > 0 && now-st.lastRetrans <= window {
			retrans++
		}
	}
	if float64(retrans) > majority*float64(len(d.flows)) {
		d.Votes++
		if d.FailureAt == 0 {
			d.FailureAt = now
		}
	}
}

// Detected reports whether Blink inferred a failure.
func (d *Detector) Detected() bool { return d.FailureAt != 0 }
