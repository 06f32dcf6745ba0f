package dataplane

import (
	"math/bits"

	"fancy/internal/hh"
)

// HHProgram is the register-level heavy-hitter stage: the HashPipe /
// PRECISION sketch of internal/hh lowered onto the emulated pipeline with
// its hardware constraints — one stateful access per register per pass,
// per-stage register homing, and a recirculated claim pass for the
// admission write. It must stay packet-for-packet equivalent to hh.Sketch
// (same hash placement, same LCG draws, same slot contents); the
// equivalence test in hh_test.go holds the two together.
//
// Layout, per sketch stage i:
//
//	stage i:     hh_keys[i] + hh_counts[i]  (a paired-SALU 64-bit cell in
//	             hardware: key compare and count update in one operation;
//	             the emulator splits them into two registers, still one
//	             access each per pass)
//	last stage:  hh_rng (1 cell) + the admission decision table
//
// Normal pass: each stage matches its slot; a hit increments in place and
// sets the PHV "matched" bit so later stages skip. A full miss tracks the
// running minimum (count, stage, index) in the PHV. The decision table
// then draws the LCG and, with probability 2^-len(min), writes the claim
// into resubmit metadata and recirculates. The claim pass skips the
// matching logic and performs the two writes at the claimed stage.
type HHProgram struct {
	Pipe   *Pipeline
	params hh.Params

	keys   []*Register
	counts []*Register
	rng    *Register
}

// Metadata and PHV field names of the program.
const (
	hhMetaClaim = "hh.claim" // resubmit: this pass installs a claim
	hhMetaStage = "hh.stage"
	hhMetaIdx   = "hh.idx"
	hhMetaKey   = "hh.key"
	hhMetaVal   = "hh.val"

	hhPHVMatched  = "hh.matched" // intra-pass: some stage already hit
	hhPHVMin      = "hh.min"
	hhPHVMinSet   = "hh.minset"
	hhPHVMinStage = "hh.minstage"
	hhPHVMinIdx   = "hh.minidx"
)

// BuildHeavyHitter lowers the sketch parameters onto a fresh pipeline.
func BuildHeavyHitter(p hh.Params) *HHProgram {
	sk := hh.NewSketch(p) // canonical defaulting
	p = sk.Params()
	g := &HHProgram{params: p, Pipe: NewPipeline(p.Stages + 1)}
	for i := 0; i < p.Stages; i++ {
		i := i
		g.keys = append(g.keys, g.Pipe.HomeRegister(NewRegister("hh_keys", p.Width), i))
		g.counts = append(g.counts, g.Pipe.HomeRegister(NewRegister("hh_counts", p.Width), i))
		g.Pipe.stages[i] = g.stageAction(i)
	}
	g.rng = g.Pipe.HomeRegister(NewRegister("hh_rng", 1), p.Stages)
	g.rng.Poke(0, hh.RandInit(p.Seed))
	g.Pipe.stages[p.Stages] = g.decideAction()
	return g
}

func (g *HHProgram) stageAction(i int) Action {
	return func(c *Ctx) {
		if c.Meta(hhMetaClaim) == 1 {
			// Claim pass: only the claimed stage touches its registers.
			if c.Meta(hhMetaStage) == Value(i) {
				idx := int(c.Meta(hhMetaIdx))
				c.RegOp(g.keys[i], idx, func(Value) Value { return c.Meta(hhMetaKey) })
				c.RegOp(g.counts[i], idx, func(Value) Value { return c.Meta(hhMetaVal) })
			}
			return
		}
		if c.PHV(hhPHVMatched) == 1 {
			return
		}
		entry := c.Pkt.key
		idx := hh.StageIndex(g.params.Seed, i, g.params.Width, entry)
		// Hardware: one paired-SALU op compares the stored key and, on
		// match, increments the count half of the cell.
		if c.RegOp(g.keys[i], idx, nil) == entry+1 {
			c.RegOp(g.counts[i], idx, func(old Value) Value { return old + 1 })
			c.SetPHV(hhPHVMatched, 1)
			return
		}
		cnt := c.RegOp(g.counts[i], idx, nil)
		if c.PHV(hhPHVMinSet) == 0 || cnt < c.PHV(hhPHVMin) {
			c.SetPHV(hhPHVMinSet, 1)
			c.SetPHV(hhPHVMin, cnt)
			c.SetPHV(hhPHVMinStage, Value(i))
			c.SetPHV(hhPHVMinIdx, Value(idx))
		}
	}
}

func (g *HHProgram) decideAction() Action {
	return func(c *Ctx) {
		if c.Meta(hhMetaClaim) == 1 {
			// The claim pass models the recirculated clone — in hardware
			// the original packet forwarded on its first pass and only
			// the clone re-entered; the clone ends here.
			c.Drop()
			return
		}
		if c.PHV(hhPHVMatched) == 1 {
			return
		}
		min := c.PHV(hhPHVMin)
		// PRECISION admission: probability 2^-len(min), evaluated as a
		// mask over the register-resident LCG. The RegOp returns the OLD
		// value, which is the draw — the same contract hh.Sketch models.
		r := c.RegOp(g.rng, 0, func(old Value) Value { return hh.LCGStep(old) })
		j := bits.Len32(min)
		var mask Value
		if j >= 32 {
			mask = ^Value(0)
		} else {
			mask = 1<<uint(j) - 1
		}
		if r&mask != 0 {
			return
		}
		c.SetMeta(hhMetaClaim, 1)
		c.SetMeta(hhMetaStage, c.PHV(hhPHVMinStage))
		c.SetMeta(hhMetaIdx, c.PHV(hhPHVMinIdx))
		c.SetMeta(hhMetaKey, c.Pkt.key+1)
		c.SetMeta(hhMetaVal, min+1)
		c.Recirculate()
	}
}

// Inject runs one packet carrying the given entry through the program and
// follows its recirculation.
func (g *HHProgram) Inject(entry Value) (Result, error) {
	return g.Pipe.Process(NewPacket(entry))
}

// Slot exposes one cell (key+1 encoding, 0 = empty) for the equivalence
// test.
func (g *HHProgram) Slot(stage, idx int) (key, count Value) {
	return g.keys[stage].Peek(idx), g.counts[stage].Peek(idx)
}
