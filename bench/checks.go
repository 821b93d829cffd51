package main

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/task"
)

// checkFinished verifies a job ran to the end: a positive span, every stage
// finished inside it, and every task slot holding a successful attempt.
func checkFinished(jm *task.JobMetrics) error {
	if jm == nil {
		return fmt.Errorf("job has no metrics")
	}
	if !(jm.End > jm.Start) {
		return fmt.Errorf("job %s: span [%v, %v] is empty", jm.Name, jm.Start, jm.End)
	}
	for _, st := range jm.Stages {
		if st.End > jm.End || st.Start < jm.Start {
			return fmt.Errorf("job %s: stage %s [%v, %v] outside the job", jm.Name, st.Spec.Name, st.Start, st.End)
		}
		if len(st.Tasks) != st.Spec.NumTasks {
			return fmt.Errorf("job %s: stage %s has %d of %d tasks", jm.Name, st.Spec.Name, len(st.Tasks), st.Spec.NumTasks)
		}
		for i, t := range st.Tasks {
			if t == nil || t.Failed {
				return fmt.Errorf("job %s: stage %s task %d did not finish", jm.Name, st.Spec.Name, i)
			}
		}
	}
	return nil
}

// checkShuffleConserved verifies, from a monotasks run's metrics, that the
// bytes map tasks wrote to shuffle files equal the bytes reduce tasks read
// back from them.
func checkShuffleConserved(jm *task.JobMetrics) error {
	var written, fetched int64
	for _, st := range jm.Stages {
		written += st.MonotaskBytes(task.DiskResource, task.KindShuffleWrite)
		fetched += st.MonotaskBytes(task.DiskResource, task.KindShuffleServeRead)
	}
	if written != fetched {
		return fmt.Errorf("job %s: shuffle wrote %d bytes but fetched %d", jm.Name, written, fetched)
	}
	return nil
}

// checkIdentity verifies the model's answer to a what-if that changes
// nothing: the run's own measured runtime.
func checkIdentity(name string, pred model.Prediction) error {
	if !closeTo(pred.PredictedSeconds, pred.ActualSeconds) {
		return fmt.Errorf("job %s: identity what-if predicts %.9g s for a %.9g s run", name, pred.PredictedSeconds, pred.ActualSeconds)
	}
	return nil
}

// checkMonoJob runs every check a monotasks job supports and returns its
// model profile.
func checkMonoJob(jm *task.JobMetrics, res model.Resources) (*model.JobProfile, error) {
	if err := checkFinished(jm); err != nil {
		return nil, err
	}
	if err := checkShuffleConserved(jm); err != nil {
		return nil, err
	}
	p := model.FromMetrics(jm, res)
	if err := checkIdentity(p.Name, model.Predict(p)); err != nil {
		return nil, err
	}
	return p, nil
}

// closeTo compares two simulated quantities to a relative 1e-9.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// relErrPct is |predicted − actual| / actual in percent.
func relErrPct(predicted, actual float64) float64 {
	return math.Abs(predicted-actual) / actual * 100
}
