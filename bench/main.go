// Command bench is the repository's end-to-end benchmark. One process runs
// one named workload from a seed, measures it for a fixed number of host
// seconds, checks every operation's output, and prints its metrics — the
// end-to-end set by default, the per-layer set with --trace 1. The last line
// of standard output is a JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {"op_p50_ms": {"value": 31.2, "unit": "ms"}, ...}}
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload shuffle-wide --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload whatif-service --repeat 5   # spread evidence
//
// See bench/README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, so one slow build (a cold page cache, a neighbour's burst) does
// not move it.
const setupRepeats = 7

// Tail percentiles. op_p90_ms is the end-to-end tail every workload can
// support within a run (at least 100 operations, so 10 lie beyond it);
// op_p99_ms and gen.lag_p99_ms are printed only where 1000 operations are
// available.
const (
	tailPct     = 90
	deepTailPct = 99
)

// maxPhase caps one measured phase: a closed loop keeps going past
// --seconds until the tail has enough samples, but not forever.
const maxPhase = 60 * time.Second

// workload is one benchmark workload. setup makes every input of a run from
// the seed and runs an untimed warm-up on inputs that are the same for every
// seed, so its cost does not move with the seed; measure runs operations
// for about d and returns what it saw. A nil tracer means an untraced phase.
type workload interface {
	setup(seed int64, tr *tracer) error
	measure(d time.Duration, tr *tracer) (phase, error)
	// predErrPct is the worst |predicted − actual| / actual, in percent, of
	// the model's 2× disk-bandwidth prediction over the run's check set
	// (simulated, deterministic).
	predErrPct() float64
	// digest runs the workload's digest set — a fixed, seed-drawn set of
	// operations covering every class of input the run draws — and hashes
	// their simulated outputs. It runs outside every timed phase.
	digest() (uint64, error)
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"shuffle-wide", "job-stream", "whatif-service", "api-records"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "shuffle-wide":
		return &shuffleWide{}, nil
	case "job-stream":
		return &jobStream{}, nil
	case "whatif-service":
		return &whatifService{}, nil
	case "api-records":
		return &apiRecords{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// phase is one measured stretch of operations.
type phase struct {
	lat       sample  // host latency per operation, ms (failed ones included)
	lag       sample  // open loop only: how late each request was sent, ms
	allocMB   float64 // heap allocated during the phase
	gcCycles  uint32  // garbage collections during the phase
	elapsed   time.Duration
	attempted int
	failed    int
	firstErr  error
}

func (p *phase) done(lat time.Duration, err error) {
	p.lat = append(p.lat, ms(lat))
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs op back to back — the next operation starts when the
// previous one returns — for d, and past d until minOps have run.
func closedLoop(d time.Duration, minOps int, op func(i int) error) phase {
	var p phase
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= d && p.attempted >= minOps) || el >= maxPhase {
			break
		}
		t0 := time.Now()
		err := op(i)
		p.done(time.Since(t0), err)
	}
	p.elapsed = time.Since(start)
	return p
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds one measured phase lasts")
	fs.IntVar(&o.trace, "trace", 0, "1 runs an untraced and a traced phase and prints the per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) in child processes and print each metric's median, quartiles and IQR/median")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if o.repeat > 0 {
		if err := repeat(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	res, err := once(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// once runs one workload once and returns its result line.
func once(o options, out io.Writer) (*result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds * float64(time.Second))

	var setups, builds []float64
	for i := 0; i < setupRepeats; i++ {
		var tr *tracer
		if o.trace == 1 {
			tr = newTracer()
		}
		runtime.GC() // start each build from the same heap, not the last one's garbage
		t0 := time.Now()
		if err := w.setup(o.seed, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if tr != nil {
			builds = append(builds, tr.seconds(spanBuild))
		}
	}

	if o.trace == 0 {
		p, err := measure(w, d, nil)
		if err != nil {
			return nil, err
		}
		return endToEnd(o, w, p, sample(setups).pct(50), out)
	}
	untraced, err := measure(w, d, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var traced phase
	lp, err := profileOf(func() error {
		var err error
		traced, err = measure(w, d, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	dig, err := w.digest()
	if err != nil {
		return nil, fmt.Errorf("%s digest set: %w", o.workload, err)
	}
	return perLayer(untraced, traced, tr, lp, sample(builds).pct(50), dig, out)
}

// measure runs one phase of w and records the heap it allocated and the
// garbage collections it ran.
func measure(w workload, d time.Duration, tr *tracer) (phase, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := w.measure(d, tr)
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.gcCycles = after.NumGC - before.NumGC
	return p, err
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(o options, w workload, p phase, setupS float64, out io.Writer) (*result, error) {
	p90, err := p.lat.tail(tailPct)
	if err != nil {
		return nil, fmt.Errorf("op_p90_ms: %w", err)
	}
	ops := float64(p.attempted) / p.elapsed.Seconds()
	res := &result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_s":       {ops, "1/s"},
			"op_p50_ms":       {p.lat.pct(50), "ms"},
			"op_p90_ms":       {p90, "ms"},
			"alloc_mb_per_op": {p.allocMB / float64(p.attempted), "MB"},
			"pred_err_pct":    {w.predErrPct(), "%"},
		},
	}
	fmt.Fprintf(out, "# workload %s seed %d: %d operations in %.2f s, nproc %d, %s\n",
		o.workload, o.seed, p.attempted, p.elapsed.Seconds(), runtime.NumCPU(), runtime.Version())
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(out, "# %-14s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "# %-14s %14.4f MB (resident-set high-water mark; moves with the scavenger's timing)\n", "peak_rss_mb", peakRSSMB())
	fmt.Fprintf(out, "# %-14s %14.4f ratio (%d of %d operations failed)\n", "fail_frac", float64(p.failed)/float64(p.attempted), p.failed, p.attempted)
	if p99, err := p.lat.tail(deepTailPct); err == nil {
		fmt.Fprintf(out, "# %-14s %14.4f ms\n", "op_p99_ms", p99)
	} else {
		fmt.Fprintf(out, "# %-14s not printed: %v\n", "op_p99_ms", err)
	}
	if p.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", p.firstErr)
	}
	return res, nil
}

// perLayer assembles the traced run's metrics.
func perLayer(untraced, traced phase, tr *tracer, lp layerProfile, buildS float64, digest uint64, out io.Writer) (*result, error) {
	m := map[string]metric{
		"workloads.build_s":        {buildS, "s"},
		"run.jobs_s":               {tr.seconds(spanRunJobs), "s"},
		"model.predict_s":          {tr.seconds(spanPredict), "s"},
		"whatifsvc.hit_p50_ms":     {tr.p50(spanHit), "ms"},
		"whatifsvc.miss_p50_ms":    {tr.p50(spanMiss), "ms"},
		"monospark.collect_s":      {tr.seconds(spanCollect), "s"},
		"runtime.gc_s":             {lp.gc, "s"},
		"profile.total_s":          {lp.total, "s"},
		"sim.events":               {tr.count("sim.events"), "count"},
		"jobsched.tasks":           {tr.count("jobsched.tasks"), "count"},
		"jobsched.failed_attempts": {tr.count("jobsched.failed_attempts"), "count"},
		"core.monotasks_cpu":       {tr.count("core.monotasks_cpu"), "count"},
		"core.monotasks_disk":      {tr.count("core.monotasks_disk"), "count"},
		"core.monotasks_net":       {tr.count("core.monotasks_net"), "count"},
		"whatifsvc.requests":       {tr.count("whatifsvc.requests"), "count"},
		"whatifsvc.memo_hit_ratio": {tr.count("whatifsvc.memo_hit_ratio"), "ratio"},
		"whatifsvc.shed":           {tr.count("whatifsvc.shed"), "count"},
		"whatifsvc.failed_runs":    {tr.count("whatifsvc.failed_runs"), "count"},
		"monospark.records":        {tr.count("monospark.records"), "count"},
		"go.alloc_mb":              {traced.allocMB, "MB"},
		"go.gc_cycles":             {float64(traced.gcCycles), "count"},
		"sim.digest":               {float64(digest >> 11), "hash"},
	}
	for _, layer := range profiledPackages {
		m[layer+".self_s"] = metric{lp.self[layer], "s"}
	}
	perEvent := 0.0
	if ev := tr.count("sim.events"); ev > 0 {
		perEvent = tr.seconds(spanRunJobs) * 1e9 / ev
	}
	m["sim.host_ns_per_event"] = metric{perEvent, "ns"}
	lag := 0.0
	if len(traced.lag) > 0 {
		v, err := traced.lag.tail(deepTailPct)
		if err != nil {
			return nil, fmt.Errorf("gen.lag_p99_ms: %w", err)
		}
		lag = v
	}
	m["gen.lag_p99_ms"] = metric{lag, "ms"}
	base := untraced.lat.pct(50)
	m["trace.overhead_pct"] = metric{(traced.lat.pct(50) - base) / base * 100, "%"}
	netNs, err := probeNetsim()
	if err != nil {
		return nil, err
	}
	shuffleNs, err := probeShuffle()
	if err != nil {
		return nil, err
	}
	m["netsim.probe_ns_per_flow"] = metric{netNs, "ns"}
	m["shuffle.probe_ns_per_reducer"] = metric{shuffleNs, "ns"}

	failed := untraced.failed + traced.failed
	attempted := untraced.attempted + traced.attempted
	fmt.Fprintf(out, "# traced phase: %d operations in %.2f s; untraced phase: %d operations\n",
		traced.attempted, traced.elapsed.Seconds(), untraced.attempted)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "# %-30s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, p := range []phase{untraced, traced} {
		if p.firstErr != nil {
			fmt.Fprintf(out, "# first failure: %v\n", p.firstErr)
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// repeat runs the workload o.repeat times in child processes, one seed
// each, and prints every metric's median, quartiles and IQR/median — the
// evidence behind the bounds in BENCHMARK.json.
func repeat(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		res, err := child(exe, o, seed, stderr)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed their checks", seed, res.Failed, res.Attempted)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	fmt.Fprintf(stdout, "workload %s, %d runs (seeds %d..%d), %g s each, trace %d, nproc %d, %s\n",
		o.workload, o.repeat, o.seed, o.seed+int64(o.repeat)-1, o.seconds, o.trace, runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(stdout, "%-30s %14s %14s %14s %10s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, k := range sortedKeys(values) {
		q1, med, q3 := quartiles(values[k])
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(stdout, "%-30s %14.4f %14.4f %14.4f %10.4f  %s\n", k, q1, med, q3, spread, units[k])
	}
	fmt.Fprintln(stdout, "per run, in seed order:")
	for _, k := range sortedKeys(values) {
		fmt.Fprintf(stdout, "%-30s", k)
		for _, v := range values[k] {
			fmt.Fprintf(stdout, " %.4g", v)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// child runs one benchmark process and parses its result line.
func child(exe string, o options, seed int64, stderr io.Writer) (*result, error) {
	var buf strings.Builder
	args := []string{"--workload", o.workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace)}
	if err := runChild(exe, args, &buf, stderr); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if len(res.Metrics) == 0 {
		return nil, errors.New("result line has no metrics")
	}
	return &res, nil
}

// runChild runs exe with args, its standard output into out, and waits
// for it to exit.
func runChild(exe string, args []string, out io.Writer, stderr io.Writer) error {
	cmd := exec.Command(exe, args...)
	cmd.Stdout = out
	cmd.Stderr = stderr
	return cmd.Run()
}
