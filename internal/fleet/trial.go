package fleet

import (
	"fmt"

	"fancy/internal/netsim"
	"fancy/internal/sim"
	"fancy/internal/topo"
	"fancy/internal/traffic"
)

// Trial is one fleet scenario as a value (DESIGN.md §7.3): fancy-fleet parses
// its flags into one, the internal/exp sweeps iterate over them, this
// package's tests are literals of it, and its fault schedule is a slice a
// search can enumerate, not closures. Every field's zero value is "none".
type Trial struct {
	Seed   int64                     // simulator seed; gray link i draws its drops from Seed+1+i
	Spec   topo.Spec                 // switches, links and hosts
	Routes map[netsim.EntryID]string // entry → owning host, over shortest paths
	Config Config

	Protect  []Protection
	Flows    []Flow
	Faults   []Fault  // scheduled in slice order (same-instant faults run in it)
	Duration sim.Time // how far Finish runs
}

// Protection registers Entry for the fleet's gated reroute at Switch: primary
// next hop PrimaryTo, backup BackupTo. An empty BackupTo asks for the provably
// loop-free detour (topo.LoopFreeBackup) and protects nothing without one.
type Protection struct {
	Switch    string
	Entry     netsim.EntryID
	PrimaryTo string
	BackupTo  string
}

// Flow is a constant-bit-rate probe: 1000-byte UDP packets from host From
// toward Entry, from time 0 until Until (0 = as long as the run goes on).
type Flow struct {
	From    string
	Entry   netsim.EntryID
	RateBps float64
	Until   sim.Time
}

// FaultKind names what a Fault does.
type FaultKind uint8

const (
	FaultGrayLink      FaultKind = iota + 1 // Link drops each of Entries with probability Loss from At on
	FaultKillLeader                         // crash the replica driving the fleet (the lone correlator, in a group of one)
	FaultRestartKilled                      // restart the replica the last FaultKillLeader crashed
	FaultPartition                          // cut Switch off the management plane
	FaultHeal                               // reconnect it
)

// Fault is one scheduled fault; Kind says which of the other fields it reads.
type Fault struct {
	At      sim.Time
	Kind    FaultKind
	Link    topo.DirectedLink // FaultGrayLink
	Entries []netsim.EntryID  // FaultGrayLink
	Loss    float64           // FaultGrayLink
	Switch  string            // FaultPartition, FaultHeal
}

// Run is a started trial, open for whatever a caller adds before Finish (an
// event tap, more traffic, an assertion scheduled mid-run). Protected is
// Trial.Protect as installed: BackupTo resolved, entries with no loop-free
// detour dropped.
type Run struct {
	Sim       *sim.Sim
	Net       *topo.Network
	Fleet     *Fleet
	Protected []Protection
	duration  sim.Time
}

// Start assembles the trial and schedules its faults without running an
// event. The order is the contract every transcript depends on: routes
// before New (the verify gate snapshots them), protections after it, traffic
// before failures, then the faults in slice order. A link, switch or host
// the topology lacks, or a flow rate that is not > 0, is an error here,
// before the first event.
func (t Trial) Start() (*Run, error) {
	s := sim.New(t.Seed)
	n, err := topo.Build(s, t.Spec)
	if err != nil {
		return nil, err
	}
	if err := n.InstallShortestPaths(t.Routes); err != nil {
		return nil, err
	}
	f, err := New(s, n, t.Config)
	if err != nil {
		return nil, err
	}
	r := &Run{Sim: s, Net: n, Fleet: f, duration: t.Duration}
	for _, p := range t.Protect {
		if n.Direction(p.Switch, p.PrimaryTo) == nil {
			return nil, fmt.Errorf("fleet: trial: no link %s->%s to protect", p.Switch, p.PrimaryTo)
		}
		if p.BackupTo == "" {
			nb, ok := n.LoopFreeBackup(topo.DirectedLink{From: p.Switch, To: p.PrimaryTo})
			if !ok {
				continue
			}
			p.BackupTo = nb
		} else if n.Direction(p.Switch, p.BackupTo) == nil {
			return nil, fmt.Errorf("fleet: trial: no link %s->%s to back up over", p.Switch, p.BackupTo)
		}
		route := n.Switches[p.Switch].Routes.InsertEntry(p.Entry, netsim.Route{
			Port:   n.PortOf[p.Switch][p.PrimaryTo],
			Backup: n.PortOf[p.Switch][p.BackupTo],
		})
		if err := f.Protect(p.Switch, p.Entry, route); err != nil {
			return nil, err
		}
		r.Protected = append(r.Protected, p)
	}
	for _, fl := range t.Flows {
		if n.Hosts[fl.From] == nil {
			return nil, fmt.Errorf("fleet: trial: no host %q to send from", fl.From)
		}
		if !(fl.RateBps > 0) {
			return nil, fmt.Errorf("fleet: trial: flow from %q at %v bps: rate must be > 0", fl.From, fl.RateBps)
		}
		traffic.NewUDPSource(s, n.Hosts[fl.From], netsim.FlowID(fl.Entry), fl.Entry,
			netsim.EntryAddr(fl.Entry, 1), fl.RateBps, 1000, fl.Until).Start()
	}
	gray, killed := int64(0), -1 // killed: the replica the last FaultKillLeader crashed
	for _, ft := range t.Faults {
		switch ft.Kind {
		case FaultGrayLink:
			dir := n.Direction(ft.Link.From, ft.Link.To)
			if dir == nil {
				return nil, fmt.Errorf("fleet: trial: no link %s to fail", ft.Link)
			}
			gray++
			dir.SetFailure(netsim.FailEntries(t.Seed+gray, ft.At, ft.Loss, ft.Entries...))
		case FaultKillLeader:
			s.ScheduleAt(ft.At, func() { killed = f.KillLeader() })
		case FaultRestartKilled:
			s.ScheduleAt(ft.At, func() { f.RestartReplica(killed) })
		case FaultPartition, FaultHeal:
			if n.Switches[ft.Switch] == nil {
				return nil, fmt.Errorf("fleet: trial: no switch %q to partition or heal", ft.Switch)
			}
			if ft.Kind == FaultPartition {
				s.ScheduleAt(ft.At, func() { f.PartitionSwitch(ft.Switch) })
			} else {
				s.ScheduleAt(ft.At, func() { f.HealSwitch(ft.Switch) })
			}
		default:
			return nil, fmt.Errorf("fleet: trial: unknown fault kind %d", ft.Kind)
		}
	}
	return r, nil
}

// Finish runs the simulation to the trial's Duration.
func (r *Run) Finish() { r.Sim.Run(r.duration) }

// Verdicts counts the localization verdicts announced for a directed link
// ("from->to"); the exactly-once contract is that a gray link gets one.
func (r *Run) Verdicts(link string) int {
	n := 0
	for _, ev := range r.Fleet.Events {
		if ev.Kind == EventLocalized && ev.Link == link {
			n++
		}
	}
	return n
}
