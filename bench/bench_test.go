package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/whatifsvc"
	"repro/internal/workloads"
	"repro/monospark"
)

// inputsOf renders every workload's generated inputs for a seed.
func inputsOf(seed int64) map[string]string {
	c := apiCorpora(seed)
	return map[string]string{
		"shuffle-wide":   fmt.Sprintf("%+v", shuffleCells(seed)),
		"job-stream":     fmt.Sprintf("%+v", streamSpecs(seed, 10)),
		"whatif-service": fmt.Sprintf("%+v", whatifRequests(seed, 500)),
		"api-records":    fmt.Sprintf("%v %v %v %v", c.lines, c.sortPairs, c.left, c.right),
	}
}

func TestSameSeedSameInputsOtherSeedOtherInputs(t *testing.T) {
	a, again, other := inputsOf(7), inputsOf(7), inputsOf(8)
	for _, name := range workloadNames {
		if a[name] != again[name] {
			t.Errorf("%s: seed 7 generated different inputs on a second call", name)
		}
		if a[name] == other[name] {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestWhatifRequestsMixHitsAndTelemetry(t *testing.T) {
	reqs := whatifRequests(3, 2000)
	seen := map[string]bool{}
	repeats, telemetry := 0, 0
	for i := range reqs {
		if err := reqs[i].Validate(false); err != nil {
			t.Fatalf("request %d is invalid: %v", i, err)
		}
		b, _ := json.Marshal(&reqs[i])
		if seen[string(b)] {
			repeats++
		}
		seen[string(b)] = true
		if reqs[i].Telemetry {
			telemetry++
		}
	}
	if repeats < 400 || repeats > 800 || telemetry < 200 {
		t.Errorf("%d repeats and %d telemetry requests of 2000", repeats, telemetry)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{{99, 90, false}, {100, 90, true}, {999, 99, false}, {1000, 99, true}} {
		s := make(sample, tc.n)
		for i := range s {
			s[i] = float64(i)
		}
		if _, err := s.tail(tc.p); (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err %v, want ok %v", tc.p, tc.n, err, tc.ok)
		}
	}
	if minOpsFor(tailPct) != 100 || minOpsFor(deepTailPct) != 1000 {
		t.Errorf("minOpsFor gives %d and %d", minOpsFor(tailPct), minOpsFor(deepTailPct))
	}

	// The metric assembly refuses a tail the run cannot support.
	short := phase{lat: make(sample, 99), attempted: 99, elapsed: time.Second}
	if _, err := endToEnd(options{workload: "x"}, fakeWorkload{}, short, 1, new(strings.Builder)); err == nil {
		t.Error("endToEnd printed op_p90_ms from 99 operations")
	}
	ok := phase{lat: make(sample, 100), attempted: 100, elapsed: time.Second}
	openLoop := ok
	openLoop.lag = make(sample, 999)
	if _, err := perLayer(ok, openLoop, newTracer(), layerProfile{}, 0, 1, new(strings.Builder)); err == nil {
		t.Error("perLayer printed gen.lag_p99_ms from 999 requests")
	}
}

type fakeWorkload struct{}

func (fakeWorkload) setup(int64, *tracer) error                    { return nil }
func (fakeWorkload) measure(time.Duration, *tracer) (phase, error) { return phase{}, nil }
func (fakeWorkload) predErrPct() float64                           { return 1 }
func (fakeWorkload) digest() (uint64, error)                       { return 1, nil }

// smallSort runs a 2 GB sort on 4 machines under monotasks.
func smallSort(t *testing.T) (*task.JobMetrics, model.Resources) {
	t.Helper()
	c := cluster.MustNew(4, cluster.M2_4XLarge())
	env := workloads.MustEnv(c)
	js, err := workloads.Sort{TotalBytes: 2 * units.GB, ValuesPerKey: 10, MapTasks: 32, ReduceTasks: 16}.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := run.Jobs(c, env.FS, run.Options{Mode: run.Monotasks}, js)
	if err != nil {
		t.Fatal(err)
	}
	return ms[0], model.ClusterResources(c)
}

func TestSimulationChecksRejectCorruptedOutputs(t *testing.T) {
	jm, res := smallSort(t)
	p, err := checkMonoJob(jm, res)
	if err != nil {
		t.Fatalf("a clean run fails its checks: %v", err)
	}

	lost := jm.Stages[1].Tasks[3]
	jm.Stages[1].Tasks[3] = nil
	if checkFinished(jm) == nil {
		t.Error("checkFinished accepted a job with a missing task")
	}
	jm.Stages[1].Tasks[3] = lost

	mt := findMonotask(jm, task.KindShuffleWrite)
	mt.Bytes++
	if checkShuffleConserved(jm) == nil {
		t.Error("checkShuffleConserved accepted a byte written but never fetched")
	}
	mt.Bytes--

	pred := model.Predict(p)
	pred.PredictedSeconds *= 1.001
	if checkIdentity(p.Name, pred) == nil {
		t.Error("checkIdentity accepted an identity prediction off by 0.1%")
	}
}

func findMonotask(jm *task.JobMetrics, kind task.Kind) *task.MonotaskMetric {
	for _, st := range jm.Stages {
		for _, tm := range st.Tasks {
			for i := range tm.Monotasks {
				if tm.Monotasks[i].Kind == kind {
					return &tm.Monotasks[i]
				}
			}
		}
	}
	return nil
}

func TestWhatifChecksRejectCorruptedAnswers(t *testing.T) {
	w := &whatifService{answers: map[string][]byte{}}
	if err := w.checkMemo([]byte("q"), []byte(`{"a":1}`), false); err != nil {
		t.Fatal(err)
	}
	if w.checkMemo([]byte("q"), []byte(`{"a":1}`), true) != nil {
		t.Error("an identical memo hit was rejected")
	}
	if w.checkMemo([]byte("q"), []byte(`{"a":2}`), true) == nil {
		t.Error("a memo hit differing from its miss was accepted")
	}

	req := &whatifsvc.Request{WhatIfs: []whatifsvc.WhatIfSpec{{Kind: "scale_disk", Factor: 2}}}
	good := func() *whatifsvc.Response {
		return &whatifsvc.Response{
			Jobs:        []whatifsvc.JobResult{{Name: "sort-0", Seconds: 10, Finished: true}},
			Predictions: []whatifsvc.WhatIfAnswer{{Question: "disk", CurrentSeconds: 10, PredictedSeconds: 6}},
		}
	}
	if err := checkAnswer(req, good()); err != nil {
		t.Fatalf("a good answer was rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*whatifsvc.Response){
		"unfinished job":     func(r *whatifsvc.Response) { r.Jobs[0].Finished = false },
		"missing prediction": func(r *whatifsvc.Response) { r.Predictions = nil },
		"wrong baseline":     func(r *whatifsvc.Response) { r.Predictions[0].CurrentSeconds = 11 },
		"aborted":            func(r *whatifsvc.Response) { r.Aborted = true },
		"unasked telemetry":  func(r *whatifsvc.Response) { r.Telemetry = &whatifsvc.TelemetrySummary{} },
	} {
		r := good()
		corrupt(r)
		if checkAnswer(req, r) == nil {
			t.Errorf("an answer with %s was accepted", name)
		}
	}
}

func TestAPIChecksRejectCorruptedAnswers(t *testing.T) {
	w := &apiRecords{corpus: apiCorpora(5)}
	ctx, err := monospark.New(monospark.Config{Machines: apiMachines})
	if err != nil {
		t.Fatal(err)
	}
	c := w.corpus
	pairs, err := ctx.Parallelize(c.sortPairs, apiPartitions)
	if err != nil {
		t.Fatal(err)
	}
	sorted, _, err := pairs.SortByKey().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkSorted(sorted); err != nil {
		t.Fatalf("a correct sort was rejected: %v", err)
	}
	sorted[0], sorted[len(sorted)-1] = sorted[len(sorted)-1], sorted[0]
	if c.checkSorted(sorted) == nil {
		t.Error("an out-of-order sort was accepted")
	}

	var counts []any
	for word, n := range c.wantCounts {
		counts = append(counts, monospark.Pair{Key: word, Value: n})
	}
	if err := c.checkCounts(counts); err != nil {
		t.Fatalf("correct counts were rejected: %v", err)
	}
	p := counts[0].(monospark.Pair)
	counts[0] = monospark.Pair{Key: p.Key, Value: p.Value.(int) + 1}
	if c.checkCounts(counts) == nil {
		t.Error("a miscounted word was accepted")
	}

	var rows []any
	for _, s := range c.wantJoin {
		f := strings.Split(s, "|")
		rows = append(rows, monospark.Pair{Key: f[0], Value: [2]any{f[1], f[2]}})
	}
	if err := c.checkJoin(rows); err != nil {
		t.Fatalf("a correct join was rejected: %v", err)
	}
	if c.checkJoin(rows[1:]) == nil {
		t.Error("a join missing a row was accepted")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNamesAndUnits checks every printed metric's name and unit, and
// that the two printed sets are exactly the ones BENCHMARK.json declares.
func TestMetricNamesAndUnits(t *testing.T) {
	p := phase{lat: make(sample, 1000), lag: make(sample, 1000), attempted: 1000, elapsed: time.Second}
	for i := range p.lat {
		p.lat[i] = 1 + float64(i%7)
	}
	e2e, err := endToEnd(options{workload: "x"}, fakeWorkload{}, p, 1, new(strings.Builder))
	if err != nil {
		t.Fatal(err)
	}
	layers, err := perLayer(p, p, newTracer(), layerProfile{}, 0, 1, new(strings.Builder))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		what     string
		printed  map[string]metric
		declared []struct{ Name, Unit string }
	}{{"end-to-end", e2e.Metrics, spec.EndToEnd}, {"per-layer", layers.Metrics, spec.PerLayer}} {
		declared := map[string]string{}
		for _, d := range set.declared {
			declared[d.Name] = d.Unit
		}
		for name, m := range set.printed {
			if !metricName.MatchString(name) || !metricUnit.MatchString(m.Unit) {
				t.Errorf("%s metric %q has a bad name or unit %q", set.what, name, m.Unit)
			}
			if unit, ok := declared[name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %q (%s) is not declared in BENCHMARK.json as such", set.what, name, m.Unit)
			}
		}
		if len(declared) != len(set.printed) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(declared), set.what, len(set.printed))
		}
	}
}

func TestProfileAttributesLeafPackages(t *testing.T) {
	for fn, pkg := range map[string]string{
		"repro/internal/netsim.(*Fabric).rerateTouched": "repro/internal/netsim",
		"repro/monospark.(*Dataset).Collect":            "repro/monospark",
		"runtime.mallocgc":                              "runtime",
		"main.main":                                     "main",
	} {
		if got := pkgOf(fn); got != pkg {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, pkg)
		}
	}
	samples, err := parseTraces(`File: bench
Type: cpu
-----------+-------------------------------------------------------
      span:  run.jobs
20000000ns   repro/internal/netsim.(*Fabric).rerateTouched
             repro/internal/netsim.(*Fabric).Transfer (inline)
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
10000000ns   main.main
-----------+-------------------------------------------------------
`)
	if err != nil || len(samples) != 2 {
		t.Fatalf("parsed %d samples, %v", len(samples), err)
	}
	lp := attribute(samples)
	if lp.self["netsim"] != 0.02 || lp.gc != 0.02 || lp.total != 0.03 {
		t.Errorf("attributed %+v, want 0.02 s netsim and GC of 0.03 s", lp)
	}
	if got := samples[0].stack[1]; got != "repro/internal/netsim.(*Fabric).Transfer" {
		t.Errorf("second frame %q", got)
	}
	lp, err = profileOf(func() error {
		h := fnv.New64a()
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			h.Write([]byte("spin"))
		}
		_ = h.Sum64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lp.total < 0.1 {
		t.Errorf("a 300 ms busy loop profiled as %.2f s", lp.total)
	}
	probeNs, err := probeNetsim()
	if err != nil || !(probeNs > 0) {
		t.Errorf("netsim probe: %v ns, %v", probeNs, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

// TestWhatifServeConcurrently sends requests from several goroutines at
// once, as the open loop does, so -race sees the shared memo check, the
// tracer and the service together.
func TestWhatifServeConcurrently(t *testing.T) {
	w := &whatifService{}
	if err := w.setup(2, nil); err != nil {
		t.Fatal(err)
	}
	svc := whatifsvc.New(whatifsvc.Config{MaxConcurrent: 4})
	tr := newTracer()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			for i := g; i < 40 && err == nil; i += 4 {
				err = w.serve(svc, i%20, tr)
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if served := len(tr.each[spanHit]) + len(tr.each[spanMiss]); served != 40 {
		t.Errorf("traced %d requests, want 40", served)
	}
}
