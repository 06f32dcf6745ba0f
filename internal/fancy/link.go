package fancy

import "fancy/internal/netsim"

// LinkPair is FANcY deployed on a netsim.LinkBed: the upstream detector
// compares counters and raises events, the downstream one runs the receiver
// side, and Out holds the monitored port's output structures.
type LinkPair struct {
	Upstream   *Detector
	Downstream *Detector
	Out        *Outputs
}

// DeployLink attaches a detector to each switch of the bed and starts the
// counting sessions on its monitored link (Up port 1 → Down port 0). The
// call order — upstream detector, downstream detector, listen, monitor — is
// the second half of the bed's construction-order contract.
func DeployLink(b *netsim.LinkBed, cfg Config) (LinkPair, error) {
	up, err := NewDetector(b.Sim, b.Up, cfg)
	if err != nil {
		return LinkPair{}, err
	}
	down, err := NewDetector(b.Sim, b.Down, cfg)
	if err != nil {
		return LinkPair{}, err
	}
	down.ListenPort(0)
	return LinkPair{Upstream: up, Downstream: down, Out: up.MonitorPort(1)}, nil
}
