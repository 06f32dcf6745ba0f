package dataplane

// This file compiles FANcY's receiver FSM onto the pipeline emulator,
// following the implementation strategy of Appendix B.1:
//
//   - State transitions take two pipeline passes. The first pass reads the
//     current state, matches the next_state table, test-and-sets the
//     state_lock register (dropping the packet if a transition is already
//     in flight), stores the planned transition in packet metadata and
//     recirculates. The second pass writes the new state, resets counters,
//     releases the lock and performs the transition action (emit an ACK,
//     emit a Report, ...).
//
//   - Reading the w counters of a tree node back out takes w recirculated
//     passes, one register access each — the cost the paper quotes for
//     counter comparison and report generation.

// Packet field and type encodings of the compiled FSM.
const (
	FieldType    = "type"
	FieldSession = "session"
	FieldIndex   = "idx"

	TypeTagged Value = 0 // tagged data packet
	TypeStart  Value = 1
	TypeStop   Value = 2
	TypeTimer  Value = 3 // Twait expiry, delivered by the traffic generator
)

// Receiver FSM states (Figure 3, right).
const (
	StateIdle       Value = 0
	StateCounting   Value = 1
	StateWaitToSend Value = 2
)

// Metadata keys.
const (
	metaPass    = "pass"    // 0 = first step, 1 = apply, 2 = readout
	metaNext    = "next"    // planned next state
	metaAckSess = "ackSess" // session to acknowledge
	metaReset   = "reset"   // reset counters during apply
	metaReport  = "report"  // start counter readout after apply
	metaRidx    = "ridx"    // readout index
)

// ReceiverProgram is the compiled FANcY receiver for one unit with a
// width-w counter node.
type ReceiverProgram struct {
	Pipe *Pipeline

	State   *Register // current FSM state
	Lock    *Register // state_lock
	Session *Register // current session number
	Node    *Register // counter node (width w; w=1 for a dedicated entry)

	width int
}

// BuildReceiver constructs the program. Width 1 models a dedicated-counter
// unit; larger widths model a tree node.
func BuildReceiver(width int) *ReceiverProgram {
	p := NewPipeline(3)
	r := &ReceiverProgram{
		Pipe:    p,
		State:   NewRegister("state", 1),
		Lock:    NewRegister("state_lock", 1),
		Session: NewRegister("session", 1),
		Node:    NewRegister("node", width),
		width:   width,
	}
	p.HomeRegister(r.State, 0)
	p.HomeRegister(r.Lock, 0)
	p.HomeRegister(r.Session, 1)
	p.HomeRegister(r.Node, 2)
	p.MaxRecirculations = width + 8

	// Stage 0, first step: read state, check/take the lock for control
	// packets, plan the transition.
	firstStep := &Table{
		Name: "next_state",
		Key: func(pkt *Packet) Value {
			if pkt.Meta[metaPass] != 0 {
				return 0xffff // skip: handled by later tables
			}
			return pkt.Field(FieldType)
		},
		Entries: map[Value]Action{
			TypeStart: func(c *Ctx) {
				if c.RegOp(r.Lock, 0, func(old Value) Value { return 1 }) != 0 {
					c.Drop() // transition already in flight
					return
				}
				c.SetMeta(metaPass, 1)
				c.SetMeta(metaNext, StateCounting)
				c.SetMeta(metaReset, 1)
				c.SetMeta(metaAckSess, c.Pkt.Field(FieldSession))
				c.Recirculate()
			},
			TypeStop: func(c *Ctx) {
				st := c.RegOp(r.State, 0, nil)
				if st != StateCounting {
					c.Drop()
					return
				}
				if c.RegOp(r.Lock, 0, func(old Value) Value { return 1 }) != 0 {
					c.Drop()
					return
				}
				c.SetMeta(metaPass, 1)
				c.SetMeta(metaNext, StateWaitToSend)
				c.Recirculate()
			},
			TypeTimer: func(c *Ctx) {
				st := c.RegOp(r.State, 0, nil)
				if st != StateWaitToSend {
					c.Drop()
					return
				}
				if c.RegOp(r.Lock, 0, func(old Value) Value { return 1 }) != 0 {
					c.Drop()
					return
				}
				c.SetMeta(metaPass, 1)
				c.SetMeta(metaNext, StateIdle)
				c.SetMeta(metaReport, 1)
				c.Recirculate()
			},
			TypeTagged: func(c *Ctx) {
				st := c.RegOp(r.State, 0, nil)
				if st != StateCounting && st != StateWaitToSend {
					c.Drop() // not in a counting session
					return
				}
				idx := int(c.Pkt.Field(FieldIndex))
				if idx >= r.width {
					c.Drop()
					return
				}
				c.RegOp(r.Node, idx, func(old Value) Value { return old + 1 })
			},
		},
	}
	p.Stage(0).AddTable(firstStep)

	// Stage 1, second step: apply the planned transition.
	apply := &Table{
		Name: "apply_transition",
		Key: func(pkt *Packet) Value {
			return pkt.Meta[metaPass]
		},
		Entries: map[Value]Action{
			1: func(c *Ctx) {
				next := c.Meta(metaNext)
				c.RegOp(r.State, 0, func(Value) Value { return next })
				if c.Meta(metaAckSess) != 0 || next == StateCounting {
					c.RegOp(r.Session, 0, func(Value) Value { return c.Meta(metaAckSess) })
					c.EmitMsg("start-ack", map[string]Value{"session": c.Meta(metaAckSess)})
				}
				if c.Meta(metaReset) != 0 && r.width == 1 {
					// A one-cell counter resets in the same pass; wider
					// nodes reset lazily during readout.
					c.RegOp(r.Node, 0, func(Value) Value { return 0 })
				}
				if c.Meta(metaReport) != 0 {
					// Begin the w-pass counter readout.
					c.SetMeta(metaPass, 2)
					c.SetMeta(metaRidx, 0)
					c.Recirculate()
					return
				}
				c.RegOp(r.Lock, 0, func(Value) Value { return 0 })
				c.Drop() // control packet consumed
			},
			2: func(c *Ctx) {
				// Readout pass: one counter per recirculation, resetting
				// it for the next session as we go.
				idx := int(c.Meta(metaRidx))
				v := c.RegOp(r.Node, idx, func(Value) Value { return 0 })
				c.EmitMsg("report-word", map[string]Value{"idx": Value(idx), "value": v})
				if idx+1 < r.width {
					c.SetMeta(metaRidx, Value(idx+1))
					c.Recirculate()
					return
				}
				c.EmitMsg("report-done", map[string]Value{"words": Value(r.width)})
				c.RegOp(r.Lock, 0, func(Value) Value { return 0 })
				c.Drop()
			},
		},
	}
	p.Stage(1).AddTable(apply)
	return r
}

// Inject runs one packet through the program and returns the result.
func (r *ReceiverProgram) Inject(typ, session, idx Value) (Result, error) {
	pkt := NewPacket(map[string]Value{
		FieldType: typ, FieldSession: session, FieldIndex: idx,
	})
	return r.Pipe.Process(pkt)
}

// CurrentState reads the FSM state from the control plane.
func (r *ReceiverProgram) CurrentState() Value { return r.State.Peek(0) }

// Locked reports whether a transition is in flight.
func (r *ReceiverProgram) Locked() bool { return r.Lock.Peek(0) != 0 }
