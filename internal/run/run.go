// Package run wires a cluster, an executor mode, and a driver together —
// the shared entry point for experiments, benchmarks, and the public API.
package run

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/jobsched"
	"repro/internal/pipeexec"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// Mode selects the execution model.
type Mode int

const (
	// Monotasks is MonoSpark: per-resource schedulers, write-through disk
	// monotasks (§3).
	Monotasks Mode = iota
	// Spark is the pipelined baseline: slots, fine-grained pipelining,
	// buffer-cache writes (§2).
	Spark
	// SparkWriteThrough is Spark with the OS configured to flush writes to
	// disk promptly — the second Spark configuration of Fig. 5. Writes still
	// pipeline through the cache, but the dirty limits are tiny, so the job
	// pays for its writes before it can finish.
	SparkWriteThrough
)

// String names the executor mode.
func (m Mode) String() string {
	switch m {
	case Monotasks:
		return "monospark"
	case Spark:
		return "spark"
	case SparkWriteThrough:
		return "spark-flush"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configure a run.
type Options struct {
	// Mode selects the executor built on every machine.
	Mode Mode
	// TasksPerMachine overrides the Spark slot count (Fig. 18's knob).
	// Ignored by Monotasks, which configures concurrency per resource.
	TasksPerMachine int
	// Mono tunes the Monotasks executor further.
	Mono core.Options
	// Pipe tunes the Spark executors (both Spark modes) further.
	Pipe pipeexec.Options
	// Faults, when set, is installed into whichever executor the mode
	// selects (shorthand for setting Mono.Faults / Pipe.Faults).
	Faults task.FaultInjector
	// Sched configures the driver's resilience, speculation, and pool
	// policies.
	Sched jobsched.Config
	// Telemetry, when set, attaches a live sampler to the run's engine so the
	// run emits periodic snapshots (utilization, pool state, per-job
	// attribution) while it executes.
	Telemetry *telemetry.Config
	// OnTelemetry receives the run's sampler once the jobs finish — the hook
	// callers use to collect the snapshot ring. Only called when Telemetry is
	// set.
	OnTelemetry func(*telemetry.Sampler)
	// Deadline, when positive, bounds the run in virtual time: once the
	// simulation clock passes it the run aborts with an *AbortError carrying
	// the partial results accumulated so far.
	Deadline sim.Time
	// WallDeadline, when nonzero, bounds the run in wall-clock time — the
	// knob a harness uses to abort a stuck cell cleanly (monobench
	// --timeout). Checked between event batches, like Deadline.
	WallDeadline time.Time
}

// AbortError reports a run cancelled mid-flight — by a context, a virtual
// deadline, or a wall-clock deadline. The run's partial results are still
// returned alongside it: every job metrics slice is well-formed, with
// unfinished jobs marked failed and end-stamped at the abort time.
type AbortError struct {
	// Reason is the underlying cause (context.Canceled,
	// context.DeadlineExceeded, or a deadline description).
	Reason error
	// At is the virtual time the abort fired.
	At sim.Time
}

// Error describes the abort.
func (e *AbortError) Error() string {
	return fmt.Sprintf("run: aborted at virtual t=%.3fs: %v", float64(e.At), e.Reason)
}

// Unwrap exposes the cause, so errors.Is(err, context.DeadlineExceeded)
// works through an AbortError.
func (e *AbortError) Unwrap() error { return e.Reason }

// errVirtualDeadline is the Reason for virtual-time deadline aborts. It
// matches context.DeadlineExceeded via errors.Is for callers that treat all
// deadline shapes alike.
var errVirtualDeadline = fmt.Errorf("virtual deadline exceeded: %w", context.DeadlineExceeded)

// errWallDeadline is the Reason for wall-clock deadline aborts.
var errWallDeadline = fmt.Errorf("wall-clock deadline exceeded: %w", context.DeadlineExceeded)

// installAbort arms the engine's abort check for ctx and o's deadlines,
// returning a disarm function. When no cancellation source is configured the
// engine is left untouched (the uninstrumented hot path).
//
// The poll interval depends on the source: virtual deadlines are checked at
// every event boundary, so the abort lands deterministically on the first
// event past the deadline (cheap — one clock comparison); wall-clock and
// context sources amortize over the engine's default batch, since their
// firing time is not reproducible anyway.
func installAbort(ctx context.Context, e *sim.Engine, o Options) func() {
	done := ctx.Done()
	if done == nil && o.Deadline <= 0 && o.WallDeadline.IsZero() {
		return func() {}
	}
	every := sim.DefaultAbortInterval
	if o.Deadline > 0 {
		every = 1
	}
	check := func() error {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if o.Deadline > 0 && e.Now() > o.Deadline {
			return errVirtualDeadline
		}
		if !o.WallDeadline.IsZero() && time.Now().After(o.WallDeadline) {
			return errWallDeadline
		}
		return nil
	}
	e.SetAbortCheck(every, check)
	return func() { e.SetAbortCheck(0, nil) }
}

// Run is one assembled simulation: a driver over a cluster's executors,
// the optional telemetry sampler Options asks for, and the abort policy
// Options and the caller's context set. It is the only place a simulation is
// built and drained — Jobs, JobsAt, the figure harness, monosim, and
// monospark all go through it — so every run honours the same deadline,
// cancellation, and telemetry contract.
//
// Build one with New (or NewWith over caller-built executors), submit work
// through Driver or SubmitAt, then drain it with Wait. A Run is single-use.
type Run struct {
	c       *cluster.Cluster
	d       *jobsched.Driver
	o       Options
	sampler *telemetry.Sampler
	// submitErr is the first failed SubmitAt arrival, reported by Wait.
	submitErr error
}

// New builds a run over c: one executor per machine in o's mode, a driver
// under o.Sched, and — when o.Telemetry is set — a live sampler.
func New(c *cluster.Cluster, fs *dfs.FS, o Options) (*Run, error) {
	return NewWith(c, fs, Executors(c, o), o)
}

// NewWith is New over caller-built executors, for callers that keep the
// executor handles (to inspect queues after the run, or to reuse them across
// runs). The executor-shaping fields of o (Mode, TasksPerMachine, Mono,
// Pipe, Faults) are not consulted; everything else is.
func NewWith(c *cluster.Cluster, fs *dfs.FS, execs []task.Executor, o Options) (*Run, error) {
	d, err := jobsched.NewWithConfig(c, fs, execs, o.Sched)
	if err != nil {
		return nil, err
	}
	r := &Run{c: c, d: d, o: o}
	if o.Telemetry != nil {
		r.sampler = telemetry.Start(c, d, *o.Telemetry)
	}
	return r, nil
}

// Driver is the run's job driver: submit jobs, fail or recover machines, and
// read scheduler state through it before and during Wait.
func (r *Run) Driver() *jobsched.Driver { return r.d }

// SubmitAt schedules an open-loop arrival schedule: each job is submitted
// at its arrival time while the run executes, without waiting for earlier
// jobs. The returned handles fill in as jobs arrive, in schedule order. An
// arrival before the cluster clock, or one without a spec, is rejected up
// front — it cannot be scheduled, and letting it reach the engine would
// panic. A submission that the driver rejects on arrival is reported by Wait.
func (r *Run) SubmitAt(subs []Submission) ([]*jobsched.JobHandle, error) {
	now := r.c.Engine.Now()
	for i, s := range subs {
		if s.Spec == nil {
			return nil, fmt.Errorf("run: submission %d has no job spec", i)
		}
		if s.At < now {
			return nil, fmt.Errorf("run: submission %d (%q) arrives at t=%v, before the cluster clock %v", i, s.Spec.Name, s.At, now)
		}
	}
	handles := make([]*jobsched.JobHandle, len(subs))
	for i, s := range subs {
		r.c.Engine.At(s.At, func() {
			h, err := r.d.SubmitWith(s.Spec, s.Opts)
			if err != nil && r.submitErr == nil {
				r.submitErr = fmt.Errorf("run: submitting job %d (%q): %w", i, s.Spec.Name, err)
			}
			handles[i] = h
		})
	}
	return handles, nil
}

// Wait drains the run: it arms the abort check for ctx and the Options
// deadlines, runs the driver until every job finishes or an abort fires,
// disarms, and finishes telemetry (stopping the sampler and handing it to
// Options.OnTelemetry). It returns every submitted job's metrics in
// submission order. On abort the error is an *AbortError and the metrics are
// the partial results: unfinished jobs are failed and end-stamped at the
// abort time. A SubmitAt arrival the driver rejected takes precedence over
// an abort. The check rides the engine's event loop, so a run that is never
// aborted is byte-identical to one executed without a context.
func (r *Run) Wait(ctx context.Context) ([]*task.JobMetrics, error) {
	disarm := installAbort(ctx, r.c.Engine, r.o)
	ms := r.d.Run()
	disarm()
	r.finishTelemetry()
	aerr := r.finishAborted()
	if r.submitErr != nil {
		return ms, r.submitErr
	}
	return ms, aerr
}

// finishAborted converts a fired engine abort into the caller-facing
// *AbortError, failing unfinished jobs so their handles and metrics are
// clean, and re-arms the engine for reuse. Returns nil if no abort fired.
func (r *Run) finishAborted() error {
	e := r.c.Engine
	reason := e.AbortErr()
	if reason == nil {
		return nil
	}
	e.ClearAbort()
	aerr := &AbortError{Reason: reason, At: e.Now()}
	r.d.AbortAll(aerr)
	return aerr
}

// finishTelemetry stops the run's sampler, if any, and hands it to
// Options.OnTelemetry.
func (r *Run) finishTelemetry() {
	if r.sampler == nil {
		return
	}
	r.sampler.Stop()
	if r.o.OnTelemetry != nil {
		r.o.OnTelemetry(r.sampler)
	}
}

// Executors builds one executor per machine of c in the requested mode.
func Executors(c *cluster.Cluster, o Options) []task.Executor {
	execs := make([]task.Executor, c.Size())
	switch o.Mode {
	case Monotasks:
		mo := o.Mono
		if o.Faults != nil {
			mo.Faults = o.Faults
		}
		g := core.NewGroup(c, mo)
		for i, w := range g.Workers {
			execs[i] = w
		}
	default:
		po := o.Pipe
		if o.Faults != nil {
			po.Faults = o.Faults
		}
		if o.TasksPerMachine > 0 {
			po.TasksPerMachine = o.TasksPerMachine
		}
		if o.Mode == SparkWriteThrough {
			// Force prompt writeback: a tiny dirty budget throttles writers
			// to the flusher's pace without serializing each chunk.
			po.DirtyLimit = 8 << 20
			po.FlushDelay = 0.1
		}
		g := pipeexec.NewGroup(c, po)
		for i, w := range g.Workers {
			execs[i] = w
		}
	}
	return execs
}

// Jobs executes specs (submitted together, so they run concurrently) and
// returns their metrics in submission order. Options deadlines (virtual or
// wall-clock) are honoured; for cancellation from a caller's context use
// JobsContext.
func Jobs(c *cluster.Cluster, fs *dfs.FS, o Options, specs ...*task.JobSpec) ([]*task.JobMetrics, error) {
	return JobsContext(context.Background(), c, fs, o, specs...)
}

// JobsContext is Jobs with cooperative cancellation: the run aborts cleanly
// when ctx is cancelled or an Options deadline passes, returning the partial
// metrics together with an *AbortError (unfinished jobs are marked failed
// and end-stamped at the abort time). The check rides the engine's event
// loop, so an un-cancelled run is byte-identical to one executed without a
// context.
func JobsContext(ctx context.Context, c *cluster.Cluster, fs *dfs.FS, o Options, specs ...*task.JobSpec) ([]*task.JobMetrics, error) {
	r, err := New(c, fs, o)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if _, err := r.d.Submit(s); err != nil {
			r.finishTelemetry()
			return nil, err
		}
	}
	return r.Wait(ctx)
}

// Submission is one job of an open-loop arrival schedule: a spec, the
// virtual time it arrives at the driver, and its scheduling tags.
type Submission struct {
	// Spec is the job to submit.
	Spec *task.JobSpec
	// At is the virtual time the job arrives at the driver.
	At sim.Time
	// Opts carries the job's pool, priority, and deadline tags.
	Opts jobsched.SubmitOptions
}

// JobsAt executes an arrival schedule: each job is submitted at its arrival
// time while the cluster runs, without waiting for earlier jobs (an open
// loop — the load does not back off when the cluster falls behind). Returns
// the job handles in schedule order; handle metrics measure sojourn time
// (admission queueing included) from each job's arrival.
func JobsAt(c *cluster.Cluster, fs *dfs.FS, o Options, subs []Submission) ([]*jobsched.JobHandle, error) {
	return JobsAtContext(context.Background(), c, fs, o, subs)
}

// JobsAtContext is JobsAt with cooperative cancellation (see JobsContext).
// An arrival schedule with a negative arrival time is rejected up front — it
// cannot be scheduled, and letting it reach the engine would panic.
func JobsAtContext(ctx context.Context, c *cluster.Cluster, fs *dfs.FS, o Options, subs []Submission) ([]*jobsched.JobHandle, error) {
	r, err := New(c, fs, o)
	if err != nil {
		return nil, err
	}
	handles, err := r.SubmitAt(subs)
	if err != nil {
		r.finishTelemetry()
		return nil, err
	}
	if _, err := r.Wait(ctx); err != nil {
		var aerr *AbortError
		if errors.As(err, &aerr) {
			return handles, err
		}
		return nil, err
	}
	return handles, nil
}
