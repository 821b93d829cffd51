package figures

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/run"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/monospark"
)

// countingOptions returns harness options with telemetry on and a counter of
// the samplers handed to OnTelemetry.
func countingOptions() (Options, *atomic.Int64) {
	var n atomic.Int64
	return Options{
		Workers:     testOptions.Workers,
		Telemetry:   &telemetry.Config{},
		OnTelemetry: func(*telemetry.Sampler) { n.Add(1) },
	}, &n
}

// TestTelemetryCoversEveryRun checks that experiments which assemble their
// own runs (arrival streams, mid-run machine failures, delayed submissions)
// honour the telemetry settings like every other figure: one sampler per
// executed run.
func TestTelemetryCoversEveryRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs int64
		fn   func(Options) error
	}{
		// 8 clean baselines + 16 failure runs.
		{"failure", 24, func(o Options) error { _, err := Failure(o); return err }},
		// Solo calibration + one load level × 2 modes + 4 batch cells.
		{"multijob-smoke", 7, func(o Options) error { _, err := Multijob(o, true); return err }},
		{"phase-rr", 2, func(o Options) error { _, err := AblationPhaseRR(o); return err }},
	} {
		o, n := countingOptions()
		if err := tc.fn(o); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := n.Load(); got != tc.runs {
			t.Errorf("%s: %d samplers reached OnTelemetry, want %d (one per run)", tc.name, got, tc.runs)
		}
	}
}

// TestPastDeadlineAbortsEveryRunShape calls each self-assembled cell runner
// directly with a deadline already behind it — bypassing the sweep, whose
// own check would fail the cell before it starts — and requires the run
// itself to abort with a *run.AbortError that matches
// context.DeadlineExceeded.
func TestPastDeadlineAbortsEveryRunShape(t *testing.T) {
	o := Options{Workers: 1, Deadline: time.Now().Add(-time.Second)}
	stream := workloads.MultiJob{
		Name: "late", Jobs: 2, MeanInterarrival: 1, Seed: 7,
		JobBytes: units.GB, MapTasks: 8, ReduceTasks: 4,
	}
	for name, fn := range map[string]func() error{
		"failureRun": func() error {
			_, _, err := failureRun(o, run.Spark, 2, false, 0)
			return err
		},
		"runMultijob": func() error {
			_, err := runMultijob(o, run.Options{Mode: run.Monotasks}, stream, nil)
			return err
		},
		"phaseRRCell": func() error {
			_, err := phaseRRCell(o, false)
			return err
		},
		"chaosRun": func() error {
			_, err := chaosRun(o, 1, monospark.Monotasks)
			return err
		},
	} {
		err := fn()
		var aerr *run.AbortError
		if !errors.As(err, &aerr) {
			t.Errorf("%s: error %v is not a *run.AbortError", name, err)
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: abort %v does not match context.DeadlineExceeded", name, err)
		}
	}
}
