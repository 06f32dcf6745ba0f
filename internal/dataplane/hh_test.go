package dataplane

import (
	"math/rand"
	"testing"

	"fancy/internal/hh"
	"fancy/internal/netsim"
)

// TestHHProgramEquivalence is the contract between the control-plane
// sketch model and the register-level program: fed the same packet
// sequence they must hold identical slot contents (keys and counts in
// every stage) and make identical admission decisions, which requires the
// admission RNG to advance in lockstep. This is what lets the switch agent
// reason about the dataplane stage using hh.Sketch alone.
func TestHHProgramEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p         hh.Params
		entries   uint64 // Zipf support of the packet stream
		windows   int
		perWindow int
	}{
		{"hand-picked 3x16", hh.Params{Stages: 3, Width: 16, Seed: 2026}, 120, 1, 8000},
		// The shape fancy runs: default sizing, the seed a detector derives
		// for its port, and several report windows. Each window closes the
		// way the detector's report tick closes it — Reset on the model, a
		// control-plane wipe of the key/count registers on the program —
		// and the admission RNG runs on across windows on both sides.
		{"production per-port", hh.Params{Seed: hh.PortSeed(20220822, 3)}, 400, 5, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sk := hh.NewSketch(tc.p)
			g := BuildHeavyHitter(tc.p)
			p := sk.Params()
			z := rand.NewZipf(rand.New(rand.NewSource(8)), 1.2, 1, tc.entries)
			for w := 0; w < tc.windows; w++ {
				recircsBefore := g.Pipe.Recircs
				admitted := 0
				for i := 0; i < tc.perWindow; i++ {
					entry := uint32(z.Uint64())
					wantAdmit := sk.Observe(netsim.EntryID(entry))
					res, err := g.Inject(Value(entry))
					if err != nil {
						t.Fatalf("window %d packet %d (entry %d): %v", w, i, entry, err)
					}
					gotAdmit := res.Passes == 2
					if gotAdmit != wantAdmit {
						t.Fatalf("window %d packet %d (entry %d): program admit=%v, sketch admit=%v",
							w, i, entry, gotAdmit, wantAdmit)
					}
					if wantAdmit {
						admitted++
						if res.Disposition != Drop {
							t.Fatalf("claim pass disposition = %v, want Drop (clone consumed)", res.Disposition)
						}
					} else if res.Disposition != Forward || res.Passes != 1 {
						t.Fatalf("non-admitted packet: disposition=%v passes=%d", res.Disposition, res.Passes)
					}
				}
				if admitted == 0 {
					t.Fatalf("window %d: no admissions in %d packets — nothing was exercised", w, tc.perWindow)
				}
				packets, recircs := sk.Window()
				if got := g.Pipe.Recircs - recircsBefore; packets != uint64(tc.perWindow) || got != recircs {
					t.Fatalf("window %d: program recirculated %d, sketch %d over %d packets", w, got, recircs, packets)
				}
				for stage := 0; stage < p.Stages; stage++ {
					for idx := 0; idx < p.Width; idx++ {
						gk, gc := g.Slot(stage, idx)
						sk2, sc := sk.Slot(stage, idx)
						if gk != sk2 || gc != sc {
							t.Fatalf("window %d slot [%d][%d]: program (key=%d,count=%d), sketch (key=%d,count=%d)",
								w, stage, idx, gk, gc, sk2, sc)
						}
					}
				}
				sk.Reset()
				for stage := range g.keys {
					for idx := 0; idx < g.keys[stage].Len(); idx++ {
						g.keys[stage].Poke(idx, 0)
						g.counts[stage].Poke(idx, 0)
					}
				}
			}
		})
	}
}

// TestHHProgramStageBudget: the program must respect the hardware
// constraints the emulator enforces — most importantly one stateful access
// per register per pass (RegOp errors out otherwise, which the equivalence
// test would surface) — and home each stage's registers in distinct
// stages so the per-stage memory report is meaningful.
func TestHHProgramStageBudget(t *testing.T) {
	p := hh.Params{Stages: 4, Width: 32, Seed: 1}
	g := BuildHeavyHitter(p)
	mem := g.Pipe.MemoryByStage()
	if len(mem) != p.Stages+1 {
		t.Fatalf("pipeline has %d stages, want %d", len(mem), p.Stages+1)
	}
	for i := 0; i < p.Stages; i++ {
		if mem[i] != 2*p.Width {
			t.Errorf("stage %d homes %d cells, want %d (keys+counts)", i, mem[i], 2*p.Width)
		}
	}
	if mem[p.Stages] != 1 {
		t.Errorf("decision stage homes %d cells, want 1 (rng)", mem[p.Stages])
	}
}

// TestHHProgramPHVScratchIsPerPass: PHV state must not leak across
// passes; a value set in one pass reads as zero after a recirculation.
func TestHHProgramPHVScratchIsPerPass(t *testing.T) {
	pipe := NewPipeline(1)
	var second Value
	passes := 0
	pipe.stages[0] = func(c *Ctx) {
		passes++
		if passes == 1 {
			c.SetPHV("x", 7)
			if c.PHV("x") != 7 {
				t.Error("PHV not visible later in the same pass")
			}
			c.Recirculate()
			return
		}
		second = c.PHV("x")
	}
	if _, err := pipe.Process(NewPacket(0)); err != nil {
		t.Fatal(err)
	}
	if second != 0 {
		t.Fatalf("PHV leaked across passes: %d", second)
	}
}

// TestResubmitMetaVisibleOnNextPass: SetMeta is resubmit metadata — later
// stages of the writing pass still read the old value, and the next pass
// reads the new one. The HH claim pass depends on both halves.
func TestResubmitMetaVisibleOnNextPass(t *testing.T) {
	pipe := NewPipeline(2)
	var seen []Value
	pipe.stages[0] = func(c *Ctx) {
		if c.Pkt.Recirculations == 0 {
			c.SetMeta("m", 5)
			c.Recirculate()
		}
	}
	pipe.stages[1] = func(c *Ctx) { seen = append(seen, c.Meta("m")) }
	if _, err := pipe.Process(NewPacket(0)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 5 {
		t.Fatalf("stage 1 read meta %v over two passes, want [0 5]", seen)
	}
}
