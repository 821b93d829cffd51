package sim

import (
	"errors"
	"fmt"
	"testing"
)

// intsEqual compares two firing logs, treating nil and empty alike.
func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chainEngine builds an engine with a deterministic self-rescheduling event
// chain that executes exactly total events, appending each firing's id to
// *log. The chain mixes cancellation and rescheduling so the heap sees the
// same churn the device models produce.
func chainEngine(total int, log *[]int) *Engine {
	e := NewEngine()
	const width = 8
	fired := 0
	var fns [width]func()
	var refs [width]EventRef
	for i := range fns {
		slot := i
		fns[slot] = func() {
			*log = append(*log, slot)
			fired++
			if fired >= total {
				for j := range refs {
					e.Cancel(refs[j])
				}
				return
			}
			next := (slot + 1) % width
			e.Cancel(refs[next])
			refs[next] = e.After(Duration(width), fns[next])
			refs[slot] = e.After(Duration(slot%3)+1, fns[slot])
		}
	}
	for i := range fns {
		refs[i] = e.After(Duration(i+1), fns[i])
	}
	return e
}

func TestAbortCheckStopsRunEarly(t *testing.T) {
	var log []int
	e := chainEngine(1000, &log)
	boom := errors.New("boom")
	polls := 0
	e.SetAbortCheck(10, func() error {
		polls++
		if polls >= 3 {
			return boom
		}
		return nil
	})
	e.Run()
	if !errors.Is(e.AbortErr(), boom) {
		t.Fatalf("AbortErr = %v, want boom", e.AbortErr())
	}
	// Poll 1 fires before the first event, then every 10 events: the third
	// poll lands after 20 executed events.
	if len(log) != 20 {
		t.Fatalf("executed %d events before abort, want 20", len(log))
	}
	if e.Len() == 0 {
		t.Fatal("abort should leave the chain's events pending")
	}
	// While the abort stands, Run is a no-op.
	before := len(log)
	e.Run()
	if len(log) != before {
		t.Fatal("Run executed events while AbortErr was set")
	}
}

// TestOccupancyStatsCountsExecutedEvents pins the engine's event counter:
// the three values OccupancyStats returns sum to the number of events
// executed, whether they ran through Run, Step, RunUntil, or an aborted Run
// (which counts only the executed prefix), and lane and windows stay 0.
func TestOccupancyStatsCountsExecutedEvents(t *testing.T) {
	total := func(e *Engine) uint64 {
		lane, global, windows := e.OccupancyStats()
		if lane != 0 || windows != 0 {
			t.Fatalf("lane=%d windows=%d, want 0 on the serial engine", lane, windows)
		}
		return lane + global
	}

	var log []int
	e := chainEngine(500, &log)
	e.Run()
	if got := total(e); got != uint64(len(log)) || got != 500 {
		t.Fatalf("after Run: count=%d, executed %d, want 500", got, len(log))
	}

	e = NewEngine()
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Step()
	e.Step()
	if got := total(e); got != 2 {
		t.Fatalf("after two Steps: count=%d, want 2", got)
	}
	e.RunUntil(4)
	if got := total(e); got != 4 {
		t.Fatalf("after RunUntil(4): count=%d, want 4", got)
	}

	log = nil
	e = chainEngine(1000, &log)
	polls := 0
	e.SetAbortCheck(10, func() error {
		polls++
		if polls >= 4 {
			return errors.New("stop")
		}
		return nil
	})
	e.Run()
	if e.AbortErr() == nil || e.Len() == 0 {
		t.Fatal("run was not aborted with events pending")
	}
	if got := total(e); got != uint64(len(log)) || got != 30 {
		t.Fatalf("after aborted Run: count=%d, executed %d, want 30", got, len(log))
	}
}

// TestAbortResumeIdentity is the reusability property: aborting a run at ANY
// deadline and then resuming (ClearAbort + Run) must reproduce exactly the
// uninterrupted event sequence — the abort is a pause, not a perturbation.
func TestAbortResumeIdentity(t *testing.T) {
	const total = 200
	var want []int
	ref := chainEngine(total, &want)
	ref.Run()
	if len(want) != total {
		t.Fatalf("reference chain fired %d events, want %d", len(want), total)
	}
	for abortAfter := 1; abortAfter < total; abortAfter += 7 {
		var got []int
		e := chainEngine(total, &got)
		stop := errors.New("deadline")
		polls := 0
		e.SetAbortCheck(1, func() error {
			polls++
			if polls >= abortAfter {
				return stop
			}
			return nil
		})
		e.Run()
		if e.AbortErr() == nil {
			t.Fatalf("abortAfter=%d: abort did not fire", abortAfter)
		}
		// The executed prefix must match the uninterrupted run.
		if !intsEqual(got, want[:len(got)]) {
			t.Fatalf("abortAfter=%d: prefix diverged", abortAfter)
		}
		// Resume: clear the abort and keep the (cleared) check installed to
		// prove the polling itself is invisible.
		e.ClearAbort()
		e.SetAbortCheck(1, func() error { return nil })
		e.Run()
		if !intsEqual(got, want) {
			t.Fatalf("abortAfter=%d: resumed run diverged from uninterrupted run", abortAfter)
		}
	}
}

// TestAbortCheckNoPerturbation: an installed check that never fires must not
// change the event order at all.
func TestAbortCheckNoPerturbation(t *testing.T) {
	const total = 500
	var want []int
	ref := chainEngine(total, &want)
	ref.Run()
	var got []int
	e := chainEngine(total, &got)
	e.SetAbortCheck(1, func() error { return nil })
	e.Run()
	if !intsEqual(got, want) {
		t.Fatal("a never-firing abort check perturbed the event order")
	}
}

func TestAbortCheckZeroAlloc(t *testing.T) {
	// The abort polling itself must not allocate: a drain with the check
	// installed must allocate exactly as much as one without. The chain's
	// own setup (engine, closures, event blocks) allocates either way, so
	// measure the delta rather than an absolute count.
	check := func() error { return nil }
	drain := func(withCheck bool) float64 {
		return testing.AllocsPerRun(20, func() {
			log := make([]int, 0, 256)
			e := chainEngine(200, &log)
			if withCheck {
				e.SetAbortCheck(4, check)
			}
			e.Run()
		})
	}
	base := drain(false)
	withCheck := drain(true)
	if withCheck > base {
		t.Fatalf("abort polling allocated: %.0f allocs/run with check vs %.0f without", withCheck, base)
	}
}

func TestSetAbortCheckDefaults(t *testing.T) {
	e := NewEngine()
	e.SetAbortCheck(0, func() error { return fmt.Errorf("x") })
	if e.abortEvery != DefaultAbortInterval {
		t.Fatalf("abortEvery = %d, want default %d", e.abortEvery, DefaultAbortInterval)
	}
	e.SetAbortCheck(0, nil)
	if e.abortCheck != nil {
		t.Fatal("nil check should disarm")
	}
}

// BenchmarkEngineDrainAbortCheck quantifies the abort poll on the Run loop:
// compare to BenchmarkEngineDrainNoCheck — the delta is the cancellation
// tax, which must stay in the noise (the check runs every 256 events).
func BenchmarkEngineDrainAbortCheck(b *testing.B) {
	benchDrain(b, true)
}

// BenchmarkEngineDrainNoCheck is the baseline for the abort-poll delta.
func BenchmarkEngineDrainNoCheck(b *testing.B) {
	benchDrain(b, false)
}

func benchDrain(b *testing.B, withCheck bool) {
	var log []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		log = log[:0]
		e := chainEngine(2000, &log)
		if withCheck {
			e.SetAbortCheck(0, func() error { return nil })
		}
		e.Run()
	}
}
