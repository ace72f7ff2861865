// Package sim is a discrete-event simulator of a small serving cluster:
// client machines, network links, and a multi-core server with an explicit
// NIC (RSS interrupt queues), CPU frequency model (DVFS governors and Turbo
// Boost with a thermal-headroom model), and NUMA memory placement.
//
// It is the substrate for the paper's experiments. The paper ran on
// Facebook production hardware whose NUMA/Turbo/DVFS/NIC knobs we cannot
// toggle (nor measure reproducibly) in this environment; the simulator
// implements the same causal mechanisms those knobs exercise, so the
// measurement pitfalls (Figs. 1-6) and the quantile-regression attribution
// (Table IV, Figs. 7-12) reproduce in shape. Everything is deterministic
// under a seed.
//
// Time is in seconds (float64). CPU work is in cycles; a core executing W
// cycles at frequency f takes W/f seconds.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// op names the step of the request path (or of a component's own work) an
// event, a core task or a pool task resumes. Together with the handler that
// interprets it and the request it concerns it forms the simulator's one
// continuation type: nothing on the request path captures state in a
// closure, everything a later hop needs travels in the Request.
type op uint8

const (
	// opCall runs a plain func() — the form Schedule and At accept.
	opCall op = iota

	// Open-loop generator.
	opArrival // next arrival is due: issue a request, draw the next gap

	// Client, in request-path order.
	opSendDone     // send-side CPU work done: the request reaches the client NIC
	opServerDone   // the server finished: the response enters the return link
	opAtClient     // response packet reached the client NIC
	opKernelDone   // kernel interrupt handling done: queue user-space receive work
	opRecvDone     // user-space receive work done: complete, or wait for the poll
	opPollBoundary // batched callbacks: the event-loop poll observes the response
	opThinkDone    // closed loop: think time over, send on the same connection

	// Server, in request-path order.
	opAtServer     // request packet reached the server NIC
	opIRQDone      // interrupt handling done on the RSS-mapped core
	opServiceStart // worker core began user-space processing
	opServiceDone  // worker core finished user-space processing
	opBackendDone  // backend round trip (or slowest fan-out leg + merge) back

	// Core.
	opTaskDone // the running task's cycles have elapsed
)

// handler is a component that can resume work: Client, Server, Core, pool,
// the open-loop generator, and the func() adapter Schedule and At use.
type handler interface {
	handle(op op, req *Request)
}

// callback adapts the plain func() that Schedule and At accept to handler.
// Func values are pointer-shaped, so the conversion to the interface
// allocates nothing. A nil callback is a no-op event.
type callback func()

func (f callback) handle(op, *Request) {
	if f != nil {
		f()
	}
}

// event is the one scheduled-continuation record: resume h at op for req.
// Records live in the engine's arena and are recycled through a free list.
type event struct {
	h   handler
	req *Request
	op  op
	// nextFree links arena slots on the free list (index+1; 0 terminates).
	// Only meaningful while the slot is not live.
	nextFree int32
}

// entry is a heap element: the event's ordering key stored inline, plus the
// arena slot of its record. seq breaks ties FIFO so same-time events run in
// schedule order, keeping runs deterministic; (time, seq) is a total order,
// so the pop sequence does not depend on the heap's shape.
//
// The time is held as its IEEE-754 bit pattern: simulated time is never
// negative, and for non-negative floats the bit patterns order exactly as
// the values do. That turns the two-level (time, seq) comparison into one
// 128-bit unsigned subtraction whose borrow is the answer — no
// data-dependent branch in the sift loops, where random event times would
// otherwise mispredict about every other comparison.
type entry struct {
	time uint64 // math.Float64bits of the event time
	seq  uint64
	slot int32
}

// before reports (a.time, a.seq) < (b.time, b.seq) as 1 or 0.
func (a *entry) before(b *entry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.time, b.time, borrow)
	return borrow
}

// Engine is the discrete-event loop. The zero value is ready to use.
//
// Internally it is a 4-ary implicit heap of (time, seq, slot) entries over a
// recycled []event arena: a 4-ary heap halves tree depth versus the binary
// container/heap, the ordering key sits in the heap entry itself so a sift
// compares neighbouring memory instead of chasing arena indices, the entries
// hold no pointers so sifting them costs no write barriers, and the free
// list means Schedule and dispatch allocate nothing once the arena has grown
// to the simulation's high-water event count — the hottest loop in the repo
// (every simulated packet, CPU task, and governor tick passes through it).
//
// The root is refilled in place: while an event's handler runs, heap[0] is a
// vacant hole, and the first event the handler schedules — three handlers in
// four schedule a successor — is sifted down from there, one sift where
// pop-then-push pays two. (time, seq) is a total order, so the pop sequence
// cannot depend on which way the heap was repaired.
type Engine struct {
	arena []event
	heap  []entry
	// hole reports that heap[0] is vacant: its event is executing (or its
	// handler panicked). It is closed by the first at, or by whoever next
	// needs the root — step after the handler, a nested Run or Step.
	hole bool
	// free is the head of the arena free list, as index+1 (0 = empty), so
	// the zero value of Engine works without an init step.
	free int32
	now  float64
	seq  uint64
	// Processed counts executed events, exposed for capacity planning in
	// benchmarks.
	processed uint64
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of executed events.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs action after delay seconds of simulated time. Negative
// delays panic: an event in the past is always a modeling bug.
func (e *Engine) Schedule(delay float64, action func()) {
	e.after(delay, callback(action), opCall, nil)
}

// At runs action at absolute simulated time t (>= Now).
func (e *Engine) At(t float64, action func()) {
	e.at(t, callback(action), opCall, nil)
}

// after resumes h at op for req after delay seconds.
func (e *Engine) after(delay float64, h handler, op op, req *Request) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: scheduling %g seconds in the past", delay))
	}
	e.at(e.now+delay, h, op, req)
}

// at resumes h at op for req at absolute simulated time t (>= Now).
func (e *Engine) at(t float64, h handler, op op, req *Request) {
	// A NaN passes t < now, sorts after +Inf and, once run, would make now
	// NaN and every later check vacuous.
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling at %g before now %g", t, e.now))
	}
	var slot int32
	if e.free != 0 {
		slot = e.free - 1
		e.free = e.arena[slot].nextFree
	} else {
		e.arena = append(e.arena, event{})
		slot = int32(len(e.arena) - 1)
	}
	ev := &e.arena[slot]
	ev.h, ev.req, ev.op = h, req, op
	e.seq++
	// t+0 turns a -0 (which is >= Now at time zero) into +0, whose bit
	// pattern sorts first rather than last.
	x := entry{time: math.Float64bits(t + 0), seq: e.seq, slot: slot}
	if e.hole {
		e.hole = false
		e.siftDown(0, x)
		return
	}
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, x)
}

// siftUp places x at or above hole i, restoring the 4-ary heap invariant.
func (e *Engine) siftUp(i int, x entry) {
	for i > 0 {
		parent := (i - 1) >> 2
		if x.before(&e.heap[parent]) == 0 {
			break
		}
		e.heap[i] = e.heap[parent]
		i = parent
	}
	e.heap[i] = x
}

// siftDown places x at or below hole i, restoring the 4-ary heap invariant.
// The earliest of a node's children is picked without a branch (before
// yields 0 or 1, used as an index or widened to a mask).
func (e *Engine) siftDown(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		if first+4 <= n {
			// Full node: a two-round tournament, the first round's two
			// comparisons independent of each other.
			k := h[first : first+4 : first+4]
			a := int(k[1].before(&k[0]))
			b := 2 + int(k[3].before(&k[2]))
			best += a + (b-a)&-int(k[b].before(&k[a]))
		} else {
			for c := first + 1; c < n; c++ {
				best += (c - best) & -int(h[c].before(&h[best]))
			}
		}
		if h[best].before(&x) == 0 {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}

// closeHole removes the vacant root: the last leaf takes its place and sinks.
func (e *Engine) closeHole() {
	e.hole = false
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}

// step pops the earliest event and resumes its handler — the simulator's
// single dispatch site. The arena slot is recycled before the handler runs
// (the handler may schedule new events, which then reuse it) and cleared so
// the arena does not retain a finished request. The root stays a hole while
// the handler runs, for its first at to fill.
func (e *Engine) step() {
	top := e.heap[0]
	ev := &e.arena[top.slot]
	h, op, req := ev.h, ev.op, ev.req
	ev.h, ev.req = nil, nil
	ev.nextFree = e.free
	e.free = top.slot + 1
	e.now = math.Float64frombits(top.time)
	e.processed++
	e.hole = true
	h.handle(op, req)
	if e.hole {
		e.closeHole()
	}
}

// Run executes events until the queue drains or simulated time would
// exceed until. Events scheduled exactly at until still run.
func (e *Engine) Run(until float64) {
	if e.hole {
		e.closeHole()
	}
	for len(e.heap) > 0 {
		if math.Float64frombits(e.heap[0].time) > until {
			break
		}
		e.step()
	}
	if e.now < until {
		e.now = until
	}
}

// Step executes the single next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if e.hole {
		e.closeHole()
	}
	if len(e.heap) == 0 {
		return false
	}
	e.step()
	return true
}

// Pending returns the number of queued events, not counting one that is
// executing.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.heap) - 1
	}
	return len(e.heap)
}
