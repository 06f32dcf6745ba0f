// Package reroute implements the fine-grained fast-rerouting application of
// the paper's §6.1 case study: as soon as FANcY flags an entry — through a
// dedicated counter mismatch or a hash-tree leaf report — the application
// flips that entry's route to its backup next hop, diverting only the
// affected traffic in well under a second.
package reroute

import (
	"slices"

	"fancy/internal/fancy"
	"fancy/internal/netsim"
	"fancy/internal/sim"
)

// App reroutes protected entries when the detector flags them.
type App struct {
	s   *sim.Sim
	det *fancy.Detector

	port    int
	entries map[netsim.EntryID]*netsim.Route
	order   []netsim.EntryID // the protected entries, ascending

	// ReroutedAt records when each entry was diverted to its backup.
	ReroutedAt map[netsim.EntryID]sim.Time

	// OnReroute, if set, is notified for each diverted entry.
	OnReroute func(entry netsim.EntryID, at sim.Time)
}

// New creates a rerouting application for one monitored port of det.
// MonitorPort must already have been called for the port.
func New(s *sim.Sim, det *fancy.Detector, port int) *App {
	return &App{
		s: s, det: det, port: port,
		entries:    make(map[netsim.EntryID]*netsim.Route),
		ReroutedAt: make(map[netsim.EntryID]sim.Time),
	}
}

// Protect registers an entry and its route handle. The route must have a
// valid Backup port.
func (a *App) Protect(entry netsim.EntryID, route *netsim.Route) {
	if i, found := slices.BinarySearch(a.order, entry); !found {
		a.order = slices.Insert(a.order, i, entry)
	}
	a.entries[entry] = route
}

// Names reports whether ev diverts entry, protected on port of det's switch:
// the detector's reading of the event on that port, where a link-down also
// compromises the whole link — the selective equivalent of a BFD-triggered
// reroute. HandleEvent and the fleet's correlator both dispatch with it.
func Names(det *fancy.Detector, port int, ev fancy.Event, entry netsim.EntryID) bool {
	return ev.Port == port && (ev.Kind == fancy.EventLinkDown || det.Implicates(ev, entry))
}

// HandleEvent reacts to a detector event, diverting every protected entry
// it names, in ascending order. Wire it into the detector's OnEvent
// callback (possibly alongside other consumers):
//
//	det.OnEvent = func(ev fancy.Event) { app.HandleEvent(ev); ... }
func (a *App) HandleEvent(ev fancy.Event) {
	for _, e := range a.order {
		if Names(a.det, a.port, ev, e) {
			a.Divert(e)
		}
	}
}

// Divert flips one protected entry to its backup next hop: the correlator's
// per-entry command, and HandleEvent's step for each entry it names. An
// unprotected entry, one with no backup and one already diverted stay as
// they are.
func (a *App) Divert(entry netsim.EntryID) {
	route, ok := a.entries[entry]
	if !ok || route.UseBackup || route.Backup < 0 {
		return
	}
	route.UseBackup = true
	a.ReroutedAt[entry] = a.s.Now()
	if a.OnReroute != nil {
		a.OnReroute(entry, a.s.Now())
	}
}

// Route returns the live route handle of a protected entry.
func (a *App) Route(entry netsim.EntryID) (*netsim.Route, bool) {
	r, ok := a.entries[entry]
	return r, ok
}

// SetBackup rewrites an entry's backup next hop — the correlator's repair
// action when the configured backup would be unsafe. Reports whether the
// entry is protected.
func (a *App) SetBackup(entry netsim.EntryID, port int) bool {
	route, ok := a.entries[entry]
	if !ok {
		return false
	}
	route.Backup = port
	return true
}

// Restore reverts an entry to its primary route (e.g. after repair).
func (a *App) Restore(entry netsim.EntryID) {
	if route, ok := a.entries[entry]; ok {
		route.UseBackup = false
		delete(a.ReroutedAt, entry)
	}
}

// Rerouted reports whether the entry is currently on its backup path.
func (a *App) Rerouted(entry netsim.EntryID) bool {
	r, ok := a.entries[entry]
	return ok && r.UseBackup
}
