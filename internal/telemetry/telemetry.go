// Package telemetry exposes a FANcY detector's state through a
// gNMI-inspired path-based interface: Get for point reads and Sample for
// periodic streams of a path's value (gNMI SAMPLE mode).
//
// The paper's Figure 1 frames FANcY as a component other applications
// drive: operators push monitoring requirements in and consume mismatching
// entries out. This package is the operator's string-path view of one
// detector, the one `fancy-sim -watch` streams; the fleet control plane
// reads its detectors directly. Paths:
//
//	/fancy/ports/<port>/flags/dedicated/<slot>   bool, dedicated flag bit
//	/fancy/ports/<port>/flags/count              int, flagged slots
//	/fancy/ports/<port>/bloom/inserted           int, flagged hash paths
//	/fancy/ports/<port>/sessions/completed       int
//	/fancy/ports/<port>/link/down                bool, link-down state
//	/fancy/control/messages                      int
//	/fancy/control/bytes                         int
//	/fancy/layout                                string
//	/fancy/stats/ctl-corrupted                   int, corrupted ctl msgs dropped
//	/fancy/stats/retransmits                     int, ctl retransmission firings
//	/fancy/stats/link-down-events                int
//	/fancy/stats/link-up-events                  int
//	/fancy/stats/restarts                        int, device reboots
//	/fancy/stats/sessions-discarded              int, congestion-guard discards
//	/fancy/stats/epoch                           int, detector generation number
//	/fancy/stats/hh-reports                      int, heavy-hitter digests emitted
//	/fancy/stats/promotions                      int, dynamic-slot promotions
//	/fancy/stats/demotions                       int, dynamic-slot demotions
//	/fancy/ports/<port>/hh/occupied              int, dynamic slots in use
//	/fancy/ports/<port>/hh/capacity              int, dynamic slots provisioned
//
// Paths are validated at Get/Sample time, so misspellings fail fast.
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fancy/internal/fancy"
	"fancy/internal/sim"
)

// Update is one sampled value.
type Update struct {
	Time  sim.Time
	Path  string
	Value any
}

// Server serves one detector's state.
type Server struct {
	s   *sim.Sim
	det *fancy.Detector

	ports []int // monitored ports, for iteration
}

// NewServer builds a telemetry server over det. The monitored ports must
// be passed explicitly (the detector does not expose its port map).
func NewServer(s *sim.Sim, det *fancy.Detector, monitoredPorts ...int) *Server {
	srv := &Server{s: s, det: det, ports: monitoredPorts}
	sort.Ints(srv.ports)
	return srv
}

// Get reads one path.
func (srv *Server) Get(path string) (any, error) {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if len(parts) < 2 || parts[0] != "fancy" {
		return nil, fmt.Errorf("telemetry: unknown path %q", path)
	}
	switch parts[1] {
	case "layout":
		return srv.det.Layout.String(), nil
	case "control":
		if len(parts) != 3 {
			return nil, fmt.Errorf("telemetry: unknown path %q", path)
		}
		switch parts[2] {
		case "messages":
			return int(srv.det.CtlMsgsSent), nil
		case "bytes":
			return int(srv.det.CtlBytesSent), nil
		}
		return nil, fmt.Errorf("telemetry: unknown path %q", path)
	case "stats":
		if len(parts) != 3 {
			return nil, fmt.Errorf("telemetry: unknown path %q", path)
		}
		st := srv.det.Stats()
		switch parts[2] {
		case "ctl-corrupted":
			return int(st.CtlCorrupted), nil
		case "retransmits":
			return int(st.Retransmits), nil
		case "link-down-events":
			return int(st.LinkDownEvents), nil
		case "link-up-events":
			return int(st.LinkUpEvents), nil
		case "restarts":
			return int(st.Restarts), nil
		case "sessions-discarded":
			return int(st.SessionsDiscarded), nil
		case "epoch":
			return int(srv.det.Epoch()), nil
		case "hh-reports":
			return int(st.HHReports), nil
		case "promotions":
			return int(st.Promotions), nil
		case "demotions":
			return int(st.Demotions), nil
		}
		return nil, fmt.Errorf("telemetry: unknown path %q", path)
	case "ports":
		return srv.getPort(parts[2:], path)
	}
	return nil, fmt.Errorf("telemetry: unknown path %q", path)
}

func (srv *Server) getPort(parts []string, full string) (any, error) {
	if len(parts) < 2 {
		return nil, fmt.Errorf("telemetry: unknown path %q", full)
	}
	port, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad port in %q", full)
	}
	out := srv.det.Outputs(port)
	if out == nil {
		return nil, fmt.Errorf("telemetry: port %d not monitored", port)
	}
	switch strings.Join(parts[1:], "/") {
	case "flags/count":
		return out.Flags.Count(), nil
	case "bloom/inserted":
		return out.Bloom.Inserted(), nil
	case "sessions/completed":
		return int(srv.det.SessionsCompleted(port)), nil
	case "link/down":
		return srv.det.LinkDown(port), nil
	case "hh/occupied":
		used, _ := srv.det.DynamicOccupancy(port)
		return used, nil
	case "hh/capacity":
		_, capacity := srv.det.DynamicOccupancy(port)
		return capacity, nil
	}
	if len(parts) == 4 && parts[1] == "flags" && parts[2] == "dedicated" {
		slot, err := strconv.Atoi(parts[3])
		if err != nil {
			return nil, fmt.Errorf("telemetry: bad slot in %q", full)
		}
		if slot < 0 || slot >= out.Flags.Len() {
			return nil, fmt.Errorf("telemetry: slot %d out of range", slot)
		}
		return out.Flags.Get(slot), nil
	}
	return nil, fmt.Errorf("telemetry: unknown path %q", full)
}

// Sample delivers the value at path every interval (gNMI SAMPLE mode).
// Sampling stops when cancel is called or the path becomes invalid.
func (srv *Server) Sample(path string, interval sim.Time, fn func(Update)) (cancel func(), err error) {
	if _, err := srv.Get(path); err != nil {
		return nil, err
	}
	var timer sim.Timer
	var tick func()
	tick = func() {
		v, err := srv.Get(path)
		if err != nil {
			return
		}
		fn(Update{Time: srv.s.Now(), Path: path, Value: v})
		timer = srv.s.ScheduleTimer(interval, tick)
	}
	timer = srv.s.ScheduleTimer(interval, tick)
	return func() { timer.Stop() }, nil
}

// StatsPaths lists the robustness-counter paths (Detector.Stats plus the
// epoch), the signals an operator reads to tell a gray link from a lossy
// control plane, a flapping peer or a rebooted device.
func StatsPaths() []string {
	return []string{
		"/fancy/stats/ctl-corrupted",
		"/fancy/stats/retransmits",
		"/fancy/stats/link-down-events",
		"/fancy/stats/link-up-events",
		"/fancy/stats/restarts",
		"/fancy/stats/sessions-discarded",
		"/fancy/stats/epoch",
		"/fancy/stats/hh-reports",
		"/fancy/stats/promotions",
		"/fancy/stats/demotions",
	}
}

// Paths lists the Get-able paths for the monitored ports, for discovery.
func (srv *Server) Paths() []string {
	paths := []string{"/fancy/layout", "/fancy/control/messages", "/fancy/control/bytes"}
	paths = append(paths, StatsPaths()...)
	for _, p := range srv.ports {
		paths = append(paths,
			fmt.Sprintf("/fancy/ports/%d/flags/count", p),
			fmt.Sprintf("/fancy/ports/%d/bloom/inserted", p),
			fmt.Sprintf("/fancy/ports/%d/sessions/completed", p),
			fmt.Sprintf("/fancy/ports/%d/link/down", p),
			fmt.Sprintf("/fancy/ports/%d/hh/occupied", p),
			fmt.Sprintf("/fancy/ports/%d/hh/capacity", p),
		)
	}
	return paths
}
