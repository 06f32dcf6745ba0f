package dataplane

import (
	"strings"
	"testing"
)

func TestRegisterSingleAccessEnforced(t *testing.T) {
	p := NewPipeline(1)
	r := p.HomeRegister(NewRegister("r", 4), 0)
	p.stages[0] = func(c *Ctx) {
		c.RegOp(r, 0, func(v Value) Value { return v + 1 })
		c.RegOp(r, 0, func(v Value) Value { return v + 1 }) // illegal
	}
	_, err := p.Process(NewPacket(0))
	if err == nil || !strings.Contains(err.Error(), "accessed twice") {
		t.Fatalf("double access not rejected: %v", err)
	}
}

func TestRegisterOutOfRange(t *testing.T) {
	p := NewPipeline(1)
	r := p.HomeRegister(NewRegister("r", 2), 0)
	p.stages[0] = func(c *Ctx) { c.RegOp(r, 5, nil) }
	if _, err := p.Process(NewPacket(0)); err == nil {
		t.Fatal("out-of-range access not rejected")
	}
}

func TestRecirculationBudget(t *testing.T) {
	p := NewPipeline(1)
	p.MaxRecirculations = 3
	p.stages[0] = func(c *Ctx) { c.Recirculate() }
	_, err := p.Process(NewPacket(0))
	if err != ErrRecircBudget {
		t.Fatalf("err = %v, want ErrRecircBudget", err)
	}
}

// TestPipelineStats: Recircs accumulates over every processed packet, and
// a packet that recirculates once takes two passes.
func TestPipelineStats(t *testing.T) {
	p := NewPipeline(1)
	p.stages[0] = func(c *Ctx) {
		if c.Pkt.Recirculations == 0 {
			c.Recirculate()
			return
		}
		c.Drop()
	}
	for i := 0; i < 2; i++ {
		res, err := p.Process(NewPacket(0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes != 2 || res.Disposition != Drop {
			t.Errorf("packet %d: passes=%d disposition=%v, want 2/Drop", i, res.Passes, res.Disposition)
		}
	}
	if p.Recircs != 2 {
		t.Errorf("Recircs = %d, want 2", p.Recircs)
	}
}

func TestMemoryByStage(t *testing.T) {
	p := NewPipeline(3)
	p.HomeRegister(NewRegister("a", 10), 0)
	p.HomeRegister(NewRegister("b", 20), 2)
	p.HomeRegister(NewRegister("c", 5), 2)
	got := p.MemoryByStage()
	if got[0] != 10 || got[1] != 0 || got[2] != 25 {
		t.Errorf("MemoryByStage = %v", got)
	}
}

func TestRegisterAccessors(t *testing.T) {
	r := NewRegister("r", 7)
	if r.Len() != 7 {
		t.Errorf("Len = %d, want 7", r.Len())
	}
	r.Poke(3, 99)
	if r.Peek(3) != 99 {
		t.Error("Poke/Peek broken")
	}
}
