// Package sweep fans the independent cells of an experiment grid across a
// pool of worker goroutines and collects their results in deterministic cell
// order.
//
// Every monobench experiment is a grid — seeds × configurations × executor
// modes — whose cells share no mutable state: each cell builds its own
// cluster, engine, and workload from scratch, runs to completion in virtual
// time, and returns a value. That makes the grid embarrassingly parallel,
// and because collection is by cell index (not completion order), the
// assembled output of a parallel sweep is byte-identical to a serial one.
// internal/figures runs all of its grids through this package, and
// cmd/monobench exposes the worker count as --parallel and the deadline as
// --timeout.
//
// Run is the one entry point; the caller passes the worker count and the
// deadline, so there is no process-wide state. With one worker the cells run
// inline on the calling goroutine, so --parallel 1 is exactly the pre-sweep
// serial execution.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// errSweepDeadline fails cells that were never started. It matches
// context.DeadlineExceeded via errors.Is, like the run layer's own deadline
// aborts, so callers can treat every timeout shape alike.
var errSweepDeadline = fmt.Errorf("sweep deadline exceeded before the cell started: %w", context.DeadlineExceeded)

// runCell executes one cell, converting a panic into a per-cell error so a
// crashing configuration is reported as a failed cell in the sweep's result
// instead of killing the whole process.
func runCell[T any](deadline time.Time, fn func(cell int) (T, error), i int) (v T, err error) {
	if !deadline.IsZero() && time.Now().After(deadline) {
		return v, errSweepDeadline
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell panicked: %v", r)
		}
	}()
	return fn(i)
}

// joinCellErrors aggregates per-cell failures in cell order (lowest index
// first), so the combined error is deterministic and names every failed
// cell. Returns nil when no cell failed.
func joinCellErrors(errs []error) error {
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("sweep: cell %d: %w", i, err))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	if len(failed) == 1 {
		return failed[0]
	}
	return fmt.Errorf("sweep: %d cells failed: %w", len(failed), errors.Join(failed...))
}

// Run executes cells 0..cells-1 with fn on up to workers goroutines and
// returns the results indexed by cell. Fewer than one worker means one: the
// cells run inline on the calling goroutine. Cells must be independent: fn is
// called concurrently from multiple goroutines and must not share mutable
// state across cells.
//
// Determinism contract: the returned slice is ordered by cell index, and
// when any cells fail, the combined error lists the failing cells in
// ascending index order — both independent of goroutine scheduling. A panic
// in a cell is recovered into that cell's error, annotated with the cell
// number, so one crashing configuration marks its cell failed instead of
// killing the sweep; healthy cells still run and their results are returned
// alongside the error. When a nonzero deadline passes mid-sweep, cells not
// yet started fail with a deadline error (matching context.DeadlineExceeded)
// rather than running; bounding the in-flight cells is the cell's own job
// (internal/figures passes the same deadline to every run it builds).
func Run[T any](workers int, deadline time.Time, cells int, fn func(cell int) (T, error)) ([]T, error) {
	if cells <= 0 {
		return nil, nil
	}
	results := make([]T, cells)
	errs := make([]error, cells)
	if workers > cells {
		workers = cells
	}
	if workers <= 1 {
		for i := 0; i < cells; i++ {
			results[i], errs[i] = runCell(deadline, fn, i)
		}
		return results, joinCellErrors(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cells {
					return
				}
				results[i], errs[i] = runCell(deadline, fn, i)
			}
		}()
	}
	wg.Wait()
	return results, joinCellErrors(errs)
}
