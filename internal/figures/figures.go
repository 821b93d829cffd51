// Package figures regenerates every table and figure in the paper's
// evaluation (§5–§7). Each FigNN function runs the corresponding experiment
// on the virtual cluster and returns a result that prints the same rows or
// series the paper reports. The cmd/monobench binary and bench_test.go are
// thin wrappers over these functions; EXPERIMENTS.md records paper-vs-
// measured for each.
package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Options are the harness settings every experiment takes as a parameter.
// They shape how an experiment runs, never what it computes: output is
// byte-identical at any Workers count and with or without telemetry.
type Options struct {
	// Workers is how many grid cells run concurrently (monobench
	// --parallel). Below 1, cells run serially on the calling goroutine.
	Workers int
	// Deadline, when nonzero, bounds the experiment in wall-clock time
	// (monobench --timeout): cells not yet started fail with a deadline
	// error, and every run already simulating aborts cleanly between event
	// batches with a *run.AbortError.
	Deadline time.Time
	// Telemetry, when set, attaches a live sampler to every executed run
	// (chaos cells included). The config is shared read-only across runs, so
	// leave Config.OnSnapshot nil and read each sampler from OnTelemetry.
	Telemetry *telemetry.Config
	// OnTelemetry receives each run's finished sampler. Cells run on
	// parallel workers, so it must be safe for concurrent calls. Collectors
	// that need a byte-stable file across Workers counts should serialize
	// each sampler to its own chunk and order chunks canonically (see
	// monobench).
	OnTelemetry func(*telemetry.Sampler)
}

// run applies the harness settings to one run's options.
func (o Options) run(ro run.Options) run.Options {
	ro.Telemetry, ro.OnTelemetry, ro.WallDeadline = o.Telemetry, o.OnTelemetry, o.Deadline
	return ro
}

// runCells runs an experiment's n independent cells through the sweep pool
// under o's worker count and deadline.
func runCells[T any](o Options, n int, fn func(cell int) (T, error)) ([]T, error) {
	return sweep.Run(o.Workers, o.Deadline, n, fn)
}

// Builder produces a job for an environment (matches the workloads types).
type Builder func(*workloads.Env) (*task.JobSpec, error)

// RunResult is one completed execution with the cluster state retained so
// figures can query utilization timelines.
type RunResult struct {
	Cluster *cluster.Cluster
	Env     *workloads.Env
	Jobs    []*task.JobMetrics
}

// execute builds a fresh cluster, materializes each builder's job, submits
// them together (concurrent jobs), and drains the simulation under the
// harness settings o.
func execute(o Options, machines int, spec cluster.MachineSpec, ro run.Options, builders ...Builder) (*RunResult, error) {
	specs := make([]cluster.MachineSpec, machines)
	for i := range specs {
		specs[i] = spec
	}
	return executeHetero(o, specs, ro, builders...)
}

// executeHetero is execute with per-machine specs (straggler experiments).
func executeHetero(o Options, specs []cluster.MachineSpec, ro run.Options, builders ...Builder) (*RunResult, error) {
	c, err := cluster.NewHetero(specs)
	if err != nil {
		return nil, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return nil, err
	}
	jobSpecs := make([]*task.JobSpec, 0, len(builders))
	for _, b := range builders {
		js, err := b(env)
		if err != nil {
			return nil, err
		}
		jobSpecs = append(jobSpecs, js)
	}
	jobs, err := run.Jobs(c, env.FS, o.run(ro), jobSpecs...)
	if err != nil {
		return nil, err
	}
	return &RunResult{Cluster: c, Env: env, Jobs: jobs}, nil
}

// pctErr returns the signed relative error of predicted vs actual in percent.
func pctErr(predicted, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return (predicted - actual) / actual * 100
}

// fprintf panics on write errors: figures print to stdout or a buffer, where
// a failed write is unrecoverable and not worth threading errors through
// every row printer.
func fprintf(w io.Writer, format string, args ...any) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		panic(err)
	}
}
