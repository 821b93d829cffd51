// Package sim provides a deterministic discrete-event simulation engine.
//
// All performance experiments in this repository run in virtual time: device
// models (CPU, disk, network) schedule completion events on an Engine, and
// the Engine advances a virtual clock from event to event. Determinism is
// guaranteed by breaking ties on (time, sequence number), so a given workload
// and cluster configuration always produces bit-identical results.
//
// The engine is the innermost loop of every experiment, so it is built to
// stay off the allocator: the pending queue is a hand-rolled indexed binary
// heap (no container/heap interface boxing), and fired or cancelled Event
// structs are recycled through a free list. Recycling is safe because At and
// After hand out EventRef value handles that carry the struct's generation;
// a stale handle — one whose event already fired or was cancelled — is
// detected by the generation check and Cancel ignores it.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. float64 seconds keeps device-model arithmetic (rates, shares)
// simple; nanosecond-scale rounding error is irrelevant at the tens-of-seconds
// scale the experiments measure.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Forever is a sentinel time later than any event the engine will execute.
const Forever Time = math.MaxFloat64

// Event is one scheduled callback's storage. Event structs are pooled: after
// an event fires or is cancelled its struct is recycled for a later At call,
// so holding a *Event across its firing is unsafe — that is why the engine
// hands out EventRef values instead.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index, -1 once removed
	gen   uint32
	fn    func()
}

// EventRef is a handle to a scheduled event, returned by At and After so
// callers can cancel the event before it fires. The zero EventRef refers to
// nothing; cancelling it is a no-op. A ref whose event already fired (or was
// already cancelled) is stale, and stale refs are likewise safely ignored —
// the generation check distinguishes them from the struct's next tenant.
type EventRef struct {
	ev  *Event
	gen uint32
}

// Scheduled reports whether the referenced event is still pending.
func (r EventRef) Scheduled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.index >= 0
}

// Time reports when the referenced event will fire, or Forever if the ref is
// zero or stale.
func (r EventRef) Time() Time {
	if !r.Scheduled() {
		return Forever
	}
	return r.ev.at
}

// eventQueue is the engine's timeline: an indexed binary min-heap on
// (at, seq) with a pooled free list and its own sequence counter.
type eventQueue struct {
	pending []*Event // indexed binary min-heap on (at, seq)
	free    []*Event // recycled Event structs
	seq     uint64
}

// schedule enqueues fn at absolute time t and returns its handle. The caller
// is responsible for the not-in-the-past check.
func (q *eventQueue) schedule(t Time, fn func()) EventRef {
	q.seq++
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		// Grow the free list a block at a time: a fresh queue warms up with
		// one allocation per 64 events instead of one per event, which matters
		// because every sweep cell builds its own engine.
		block := make([]Event, 64)
		for i := 1; i < len(block); i++ {
			block[i].index = -1
			q.free = append(q.free, &block[i])
		}
		block[0].index = -1
		ev = &block[0]
	}
	ev.at = t
	ev.seq = q.seq
	ev.fn = fn
	ev.index = len(q.pending)
	q.pending = append(q.pending, ev)
	q.siftUp(ev.index)
	return EventRef{ev: ev, gen: ev.gen}
}

// remove cancels a pending event; zero and stale refs are no-ops.
func (q *eventQueue) remove(r EventRef) {
	if !r.Scheduled() {
		return
	}
	ev := r.ev
	i := ev.index
	n := len(q.pending) - 1
	if i != n {
		q.pending[i] = q.pending[n]
		q.pending[i].index = i
	}
	q.pending[n] = nil
	q.pending = q.pending[:n]
	if i != n {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	q.recycle(ev)
}

// pop removes and returns the earliest pending event, or nil when the queue
// is empty. The caller must recycle the struct after reading it.
func (q *eventQueue) pop() *Event {
	if len(q.pending) == 0 {
		return nil
	}
	ev := q.pending[0]
	n := len(q.pending) - 1
	if n > 0 {
		q.pending[0] = q.pending[n]
		q.pending[0].index = 0
	}
	q.pending[n] = nil
	q.pending = q.pending[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev
}

// peek reports the earliest pending time, or Forever when empty.
func (q *eventQueue) peek() Time {
	if len(q.pending) == 0 {
		return Forever
	}
	return q.pending[0].at
}

// recycle retires an event struct to the free list, bumping its generation so
// stale EventRefs can no longer reach it.
func (q *eventQueue) recycle(ev *Event) {
	ev.index = -1
	ev.fn = nil
	ev.gen++
	q.free = append(q.free, ev)
}

// len reports the number of pending events.
func (q *eventQueue) len() int { return len(q.pending) }

// less orders events by (time, seq) — the determinism tie-break.
func (q *eventQueue) less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap invariant upward from index i.
func (q *eventQueue) siftUp(i int) {
	h := q.pending
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// siftDown restores the heap invariant downward from index i, reporting
// whether the element moved.
func (q *eventQueue) siftDown(i int) bool {
	h := q.pending
	n := len(h)
	ev := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q.less(h[right], h[child]) {
			child = right
		}
		if !q.less(h[child], ev) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = ev
	ev.index = i
	return i != start
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine. Engines are not safe for concurrent use: the timeline
// is single-threaded by design, which is what makes it deterministic.
type Engine struct {
	now     Time
	q       eventQueue
	running bool

	// Cooperative cancellation: Run polls abortCheck every abortEvery events
	// and stops early (recording abortErr) when it returns non-nil. The check
	// runs between events, never inside one, so a fired abort cannot perturb
	// event order — the events that did execute are exactly the prefix an
	// uninterrupted run would have executed.
	abortCheck func() error
	abortEvery int
	abortErr   error

	// executed counts events run since NewEngine (see OccupancyStats).
	executed uint64
}

// DefaultAbortInterval is how many events Run executes between abort-check
// polls when SetAbortCheck is given a non-positive interval. Small enough
// that a cancelled run stops within microseconds of real time, large enough
// that the poll is invisible next to the event dispatch itself.
const DefaultAbortInterval = 256

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a device-model bug, and silently clamping would
// mask it.
func (e *Engine) At(t Time, fn func()) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	return e.q.schedule(t, fn)
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Duration, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. Cancelling a zero or stale ref — one whose
// event already fired or was already cancelled — is a no-op, which lets
// device models cancel their provisional completion events unconditionally.
func (e *Engine) Cancel(r EventRef) { e.q.remove(r) }

// Len reports the number of pending events.
func (e *Engine) Len() int { return e.q.len() }

// OccupancyStats reports how many events the engine has executed since
// NewEngine, through Run, Step, and RunUntil alike, as globalEvents. The
// other two values are always 0: laneEvents and windows are kept so callers
// that sum the three still count every executed event.
func (e *Engine) OccupancyStats() (laneEvents, globalEvents, windows uint64) {
	return 0, e.executed, 0
}

// Step executes the single earliest pending event and returns true, or
// returns false if none remain.
func (e *Engine) Step() bool {
	ev := e.q.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	fn := ev.fn
	// Recycle before running the callback: the callback frequently schedules
	// the device's next completion, which can then reuse this struct.
	e.q.recycle(ev)
	e.executed++
	fn()
	return true
}

// SetAbortCheck installs (or, with a nil check, removes) a cooperative
// cancellation hook: while Run drains the queue it calls check every `every`
// events (DefaultAbortInterval when every <= 0) and stops early when check
// returns a non-nil error, which is then available from AbortErr. The check
// runs between events — never mid-callback — so the executed prefix is
// byte-identical to the same prefix of an uninterrupted run, and a run that
// is never aborted is unaffected entirely. The polling itself allocates
// nothing; the check function should not either (a context poll or a clock
// comparison is the intended shape).
func (e *Engine) SetAbortCheck(every int, check func() error) {
	if every <= 0 {
		every = DefaultAbortInterval
	}
	e.abortCheck = check
	e.abortEvery = every
}

// AbortErr reports the error that stopped the last Run early, or nil if no
// abort has fired. While AbortErr is non-nil, Run returns immediately;
// ClearAbort re-arms the engine.
func (e *Engine) AbortErr() error { return e.abortErr }

// ClearAbort resets a fired abort so the engine can be driven again. The
// pending queue is untouched: a cleared engine resumes exactly where the
// abort paused it, which is what makes an aborted simulation resumable (and
// testable — resuming must reproduce the uninterrupted event sequence).
func (e *Engine) ClearAbort() { e.abortErr = nil }

// Run executes events until none remain, or — when an abort check is
// installed — until the check fails, leaving the remaining events pending
// and the reason on AbortErr.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.abortCheck == nil {
		for e.Step() {
		}
		return
	}
	if e.abortErr != nil {
		return
	}
	// Check once before the first event so an already-fired source (a
	// pre-cancelled context, an expired deadline) aborts a run of any size.
	if err := e.abortCheck(); err != nil {
		e.abortErr = err
		return
	}
	budget := e.abortEvery
	for e.Step() {
		budget--
		if budget <= 0 {
			if err := e.abortCheck(); err != nil {
				e.abortErr = err
				return
			}
			budget = e.abortEvery
		}
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled later than t remain pending.
func (e *Engine) RunUntil(t Time) {
	for e.q.peek() <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
