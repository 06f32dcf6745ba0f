package fleet

// The switch agent is the on-device half of the fleet control plane and the
// only thing between a detector and the correlator: it owns the switch's
// reroute applications, forwards detector events to the correlator as
// epoch-stamped reports, serves the correlator's restart-counter reads and
// gating commands, and — when the management plane cuts it off — falls back
// to degraded-mode local protection, the paper-level per-link reroute that
// needs no correlator.

import (
	"fmt"

	"fancy/internal/fancy"
	"fancy/internal/hh"
	"fancy/internal/mgmt"
	"fancy/internal/netsim"
	"fancy/internal/reroute"
	"fancy/internal/sim"
)

// eventReport carries one detector event to the correlator, stamped with
// the emitting detector's epoch so the correlator can recognize reports
// from a pre-restart incarnation that the management network delivered
// late (stale-epoch guard).
type eventReport struct {
	Epoch uint8
	Ev    fancy.Event
}

// rerouteReport tells the correlator an entry protected on Port flipped to
// egress port Egress, either under correlator gating or autonomously in
// degraded mode. It is how the correlator learns of a flip: it never reads
// the switch's route table.
type rerouteReport struct {
	Port     int
	Entry    netsim.EntryID
	Egress   int
	At       sim.Time
	Degraded bool
}

// reconcileReport is the agent's handback after a partition heals: how long
// it protected autonomously and how many local reroutes it performed (the
// individual rerouteReports travel separately, in sequence).
type reconcileReport struct {
	Since    sim.Time
	Reroutes int
}

// restartsReq is the correlator's RPC read of the detector's restart
// counter. A zero-size value boxes without allocating.
type restartsReq struct{}

// restoreCmd is the gate's refusal of a degraded-mode flip it found unsafe at
// handback: put the entry back on its primary next hop.
type restoreCmd struct {
	Port  int
	Entry netsim.EntryID
}

// repairCmd is the correlator's per-entry reaction: set the entry's backup
// next hop (the configured one, or the gate's verified repair), then flip.
// Also used to re-issue logged decisions after a failover (idempotent
// either way: an entry already on its backup stays put).
type repairCmd struct {
	Port   int
	Entry  netsim.EntryID
	Backup int
}

// switchAgent is one switch's management endpoint.
type switchAgent struct {
	f    *Fleet
	sw   string
	apps map[int]*reroute.App

	client *mgmt.Client // nil in direct mode

	degraded      bool
	degradedSince sim.Time
	localReroutes int // reroutes performed during the current degraded spell

	// Heavy-hitter allocation loop (populated only with Config.HH).
	hhAlloc map[int]*hh.Allocator // per monitored port
	hhStats hhAllocStats
	hhRep   hh.Report // decode target, reused by every digest
}

func newSwitchAgent(f *Fleet, sw string) *switchAgent {
	a := &switchAgent{f: f, sw: sw, apps: make(map[int]*reroute.App),
		hhAlloc: make(map[int]*hh.Allocator)}
	if f.mgmtNet != nil {
		// Leader discovery: the agent knows every replica endpoint and
		// rotates through them on silence; redirects re-aim it directly.
		// With one endpoint there is nowhere to rotate to.
		eps := make([]string, f.group.n)
		for i, r := range f.group.replicas {
			eps[i] = r.name
		}
		a.client = mgmt.NewClient(f.S, f.mgmtNet, sw, eps[0])
		a.client.SetEndpoints(eps)
		a.client.OnOnline = a.onOnline
		a.client.OnCall = a.onCall
	}
	return a
}

// onDetectorEvent receives every event of this switch's detector and ships
// it to the correlator.
// In degraded mode the event is also fed straight into the local reroute
// applications: protection must not wait out a partition.
func (a *switchAgent) onDetectorEvent(ev fancy.Event) {
	if a.degraded {
		if app, ok := a.apps[ev.Port]; ok {
			app.HandleEvent(ev)
		}
	}
	a.send(eventReport{Epoch: a.f.Detectors[a.sw].Epoch(), Ev: ev})
}

// send ships one report to the correlator: over the management network when
// one is configured, synchronously otherwise.
func (a *switchAgent) send(payload any) {
	if a.client != nil {
		a.client.Send(payload)
		return
	}
	a.f.handleReport(a.sw, payload)
}

// onOnline tracks management-plane connectivity. The false edge engages
// degraded-mode local protection; the true edge hands control back to the
// correlator and reconciles.
func (a *switchAgent) onOnline(online bool) {
	if !online {
		if !a.degraded {
			a.degraded = true
			a.degradedSince = a.f.S.Now()
			a.localReroutes = 0
		}
		return
	}
	if a.degraded {
		a.degraded = false
		a.send(reconcileReport{Since: a.degradedSince, Reroutes: a.localReroutes})
	}
}

// onCall serves the correlator's RPCs: restart-counter reads and gating
// commands.
func (a *switchAgent) onCall(req any) (any, error) {
	switch r := req.(type) {
	case restartsReq:
		return a.restarts(), nil
	case restoreCmd:
		if app, ok := a.apps[r.Port]; ok {
			app.Restore(r.Entry)
		}
		return true, nil
	case repairCmd:
		if app, ok := a.apps[r.Port]; ok {
			if app.SetBackup(r.Entry, r.Backup) {
				app.Divert(r.Entry)
			}
		}
		return true, nil
	}
	return nil, fmt.Errorf("fleet: unknown agent call %T", req)
}

// onLocalReroute observes a reroute application diverting an entry (whether
// commanded by the correlator or autonomous) and reports it upstream; in
// degraded mode the report spools until the partition heals.
func (a *switchAgent) onLocalReroute(port int, entry netsim.EntryID, at sim.Time) {
	if a.degraded {
		a.localReroutes++
	}
	route, _ := a.apps[port].Route(entry)
	a.send(rerouteReport{Port: port, Entry: entry, Egress: route.Egress(), At: at, Degraded: a.degraded})
}

// command delivers a correlator command (repairCmd or restoreCmd) to this
// agent: a plain call in direct mode, a hardened RPC over the management
// plane otherwise.
func (f *Fleet) command(sw string, cmd any) {
	a := f.agents[sw]
	if a.client == nil {
		a.onCall(cmd) //nolint:errcheck // gating commands cannot fail
		return
	}
	f.active().srv.Call(sw, cmd, func(_ any, err error) {
		if err != nil {
			f.Corr.RerouteCmdFails++
		}
	})
}

// restarts is the switch detector's restart counter.
func (a *switchAgent) restarts() int { return int(a.f.Detectors[a.sw].Stats().Restarts) }

// remoteRestarts reads sw's restart counter: synchronous in direct mode, a
// hardened RPC (timeout, bounded retries, backoff + jitter) otherwise. cb
// fires exactly once either way.
func (f *Fleet) remoteRestarts(sw string, cb func(any, error)) {
	a := f.agents[sw]
	if a.client == nil {
		cb(a.restarts(), nil)
		return
	}
	f.active().srv.Call(sw, restartsReq{}, cb)
}
