package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// Span names. Each wraps one of the benchmark's own calls into a layer; in a
// traced run the call also carries the name as a pprof label ("span"), so a
// saved profile can be cut by span.
const (
	spanBuild   = "workloads.build"   // making a run's inputs (set-up)
	spanRunJobs = "run.jobs"          // run.Jobs / run.JobsAt
	spanPredict = "model.predict"     // model.FromMetrics + model.Predict, JobRun.Explain + Predict
	spanServe   = "whatifsvc.serve"   // Service.ServeHTTP on /whatif, split into the two below
	spanHit     = "whatifsvc.hit"     // a /whatif request answered from the memo
	spanMiss    = "whatifsvc.miss"    // a /whatif request that ran a simulation
	spanCollect = "monospark.collect" // Dataset.Collect
)

// tracer records spans and counts for the traced run. A nil *tracer is the
// untraced run: every method is a no-op apart from calling the wrapped
// function, so the end-to-end run pays nothing for the instrumentation.
type tracer struct {
	mu     sync.Mutex
	total  map[string]time.Duration // summed span time
	each   map[string][]float64     // per-call span time in ms, for spans reported as percentiles
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{total: map[string]time.Duration{}, each: map[string][]float64{}, counts: map[string]float64{}}
}

// span runs fn, timing it under name and labelling its CPU samples.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
	t.record(name, time.Since(start))
}

// record adds one timed call to a span (for spans whose name is only known
// after the call, such as a memo hit or miss).
func (t *tracer) record(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total[name] += d
	t.each[name] = append(t.each[name], float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// add increments a count.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total[name].Seconds()
}

func (t *tracer) p50(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.each[name]) == 0 {
		return 0
	}
	return sample(t.each[name]).pct(50)
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// profiledPackages are the layers whose CPU self time the traced run
// reports, by the package of each sample's leaf frame.
var profiledPackages = []string{
	"netsim", "shuffle", "sim", "resource", "core", "pipeexec", "jobsched",
	"model", "telemetry", "whatifsvc", "monospark",
}

// layerProfile is the CPU time of a traced phase split by layer.
type layerProfile struct {
	self  map[string]float64 // seconds whose leaf frame is in the layer
	gc    float64            // seconds in the garbage collector
	total float64            // all sampled seconds
}

// profileOf runs fn under the CPU profiler and attributes the samples.
func profileOf(fn func() error) (layerProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return layerProfile{}, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if runErr != nil {
		return layerProfile{}, runErr
	}
	samples, err := readCPUProfile(buf.Bytes())
	if err != nil {
		return layerProfile{}, err
	}
	return attribute(samples), nil
}

func attribute(samples []cpuSample) layerProfile {
	lp := layerProfile{self: map[string]float64{}}
	byPath := map[string]string{}
	for _, p := range profiledPackages {
		byPath["repro/internal/"+p] = p
	}
	byPath["repro/monospark"] = "monospark"
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		lp.total += sec
		if isGC(s.stack) {
			lp.gc += sec
		}
		if len(s.stack) == 0 {
			continue
		}
		if layer, ok := byPath[pkgOf(s.stack[0])]; ok {
			lp.self[layer] += sec
		}
	}
	return lp
}

// sortedKeys lists a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
