package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/jobsched"
	"repro/internal/model"
	"repro/internal/run"
	"repro/internal/task"
	"repro/internal/units"
	"repro/internal/workloads"
)

// hashFloats folds simulated outputs into a digest, bit for bit.
func hashFloats(h hash.Hash64, vals ...float64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// hashJob folds a job's simulated timeline into a digest: the job's, every
// stage's and every task's span, and every monotask's resource, kind,
// machine, times and bytes.
func hashJob(h hash.Hash64, jm *task.JobMetrics) {
	hashFloats(h, float64(jm.Start), float64(jm.End))
	for _, st := range jm.Stages {
		hashFloats(h, float64(st.Start), float64(st.End))
		for _, t := range st.Tasks {
			if t == nil {
				continue
			}
			hashFloats(h, float64(t.Machine), float64(t.Start), float64(t.End))
			for _, m := range t.Monotasks {
				hashFloats(h, float64(m.Resource), float64(m.Kind), float64(m.Machine),
					float64(m.Queued), float64(m.Start), float64(m.End), float64(m.Bytes))
			}
		}
	}
}

// countJob adds a job's task and monotask counts to the trace.
func countJob(tr *tracer, jm *task.JobMetrics) {
	if tr == nil {
		return
	}
	var tasks, failed, cpu, disk, net float64
	for _, st := range jm.Stages {
		for _, t := range st.Tasks {
			if t == nil {
				continue
			}
			tasks++
			if t.Failed {
				failed++
			}
			for _, m := range t.Monotasks {
				switch m.Resource {
				case task.CPUResource:
					cpu++
				case task.DiskResource:
					disk++
				case task.NetworkResource:
					net++
				}
			}
		}
	}
	tr.add("jobsched.tasks", tasks)
	tr.add("jobsched.failed_attempts", failed)
	tr.add("core.monotasks_cpu", cpu)
	tr.add("core.monotasks_disk", disk)
	tr.add("core.monotasks_net", net)
}

// countEvents adds the events a finished run's engine executed.
func countEvents(tr *tracer, c *cluster.Cluster) {
	if tr == nil {
		return
	}
	lane, global, _ := c.Engine.OccupancyStats()
	tr.add("sim.events", float64(lane+global))
}

// ---------------------------------------------------------------------------
// shuffle-wide: Fig. 11 cells on 20 × I2_2XLarge.

const (
	shuffleMachines = 20
	// shuffleTasks is the map and reduce task count of every sort. Fewer
	// tasks than the 160 cores keep one cell near 0.1 s of host time, so a
	// run holds the hundred-plus cells its tail percentile needs, while the
	// shuffle is still one all-to-all component of 4096 flows.
	shuffleTasks = 64
	// shuffleCellCount is how many distinct cells a run draws — more than it
	// can complete, so its latencies are a median over distinct inputs and
	// not over a few repeated ones.
	shuffleCellCount = 256
)

// shuffleValueCounts are Fig. 11's values per key: CPU-heavy to disk-heavy.
var shuffleValueCounts = []int{10, 20, 50}

// shuffleCellSpec is one Fig. 11 cell's inputs.
type shuffleCellSpec struct {
	Values int
	GB     int64
}

// shuffleCells draws a run's cells from the seed: value counts in blocks
// that each hold all three (so the first three cells cover Fig. 11's
// grid), input sizes stratified over [100, 600) GB.
func shuffleCells(seed int64) []shuffleCellSpec {
	rng := rand.New(rand.NewSource(seed))
	values := balanced(rng, shuffleCellCount, []int{1, 1, 1})
	gbs := stratified(rng, shuffleCellCount, 100, 600)
	cells := make([]shuffleCellSpec, shuffleCellCount)
	for i := range cells {
		cells[i] = shuffleCellSpec{Values: shuffleValueCounts[values[i]], GB: int64(gbs[i])}
	}
	return cells
}

// stratified draws n values over [lo, hi), one uniformly inside each of n
// equal strata, in seeded order: every seed gets a different sample with
// the same spread, so a run's cost does not depend on a lucky draw.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i, stratum := range rng.Perm(n) {
		out[i] = lo + (hi-lo)*(float64(stratum)+rng.Float64())/float64(n)
	}
	return out
}

// balanced draws n class indices in blocks; each block holds counts[c] of
// class c in seeded order, so every seed mixes the classes in the same
// proportions.
func balanced(rng *rand.Rand, n int, counts []int) []int {
	var block []int
	for c, k := range counts {
		for j := 0; j < k; j++ {
			block = append(block, c)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		for _, j := range rng.Perm(len(block)) {
			out = append(out, block[j])
		}
	}
	return out[:n]
}

// shuffleWarmGB is the input size of the warm-up cells: the middle of the
// drawn range, the same on every seed, so the warm-up costs what a median
// cell costs whatever the seed draws.
const shuffleWarmGB = 350

// shuffleCell is a built cell: the sort laid out for a 1-SSD and a 2-SSD
// cluster shape. The job specs and block stores are read-only during a run,
// so each operation runs them on fresh clusters.
type shuffleCell struct {
	shuffleCellSpec
	fs1, fs2     *dfs.FS
	spec1, spec2 *task.JobSpec
}

type shuffleWide struct {
	cells []shuffleCell
	warm  []shuffleCell // Fig. 11's grid at shuffleWarmGB, one cell per value count
	worst float64       // worst 2× SSD prediction error of the warm cells, %
}

func (w *shuffleWide) setup(seed int64, tr *tracer) error {
	specs := shuffleCells(seed)
	for _, values := range shuffleValueCounts {
		specs = append(specs, shuffleCellSpec{Values: values, GB: shuffleWarmGB})
	}
	cells := make([]shuffleCell, len(specs))
	var err error
	tr.span(spanBuild, func() {
		for i, cs := range specs {
			c := &cells[i]
			c.shuffleCellSpec = cs
			if c.fs1, c.spec1, err = buildSort(cluster.I2_2XLarge(1), cs); err != nil {
				return
			}
			if c.fs2, c.spec2, err = buildSort(cluster.I2_2XLarge(2), cs); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	w.cells, w.warm = cells[:shuffleCellCount], cells[shuffleCellCount:]
	// Warm-up: Fig. 11's three value counts at a fixed size. Their outputs
	// fix the run's prediction error, whatever the timed phase reaches.
	w.worst = 0
	for i := range w.warm {
		out, err := w.op(&w.warm[i], nil, nil)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		w.worst = math.Max(w.worst, out.errPct)
	}
	return nil
}

func buildSort(spec cluster.MachineSpec, cs shuffleCellSpec) (*dfs.FS, *task.JobSpec, error) {
	c, err := cluster.New(shuffleMachines, spec)
	if err != nil {
		return nil, nil, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return nil, nil, err
	}
	js, err := workloads.Sort{
		TotalBytes: cs.GB * units.GB, ValuesPerKey: cs.Values,
		MapTasks: shuffleTasks, ReduceTasks: shuffleTasks,
	}.Build(env)
	return env.FS, js, err
}

// maxShufflePredErr bounds one cell's 2× SSD prediction error before the
// cell counts as a failed output; the paper's Fig. 11 errors are within 10%.
const maxShufflePredErr = 25.0

// shuffleOut is one cell's simulated outputs, in virtual seconds.
type shuffleOut struct {
	base, actual, predicted, errPct float64
}

// op runs one cell: the sort on 1 SSD, the sort on 2 SSDs, and the model's
// 2× disk prediction from the first checked against the second. A non-nil
// h receives both runs' timelines and the prediction.
func (w *shuffleWide) op(cell *shuffleCell, tr *tracer, h hash.Hash64) (shuffleOut, error) {
	base, c1, err := runSort(tr, cluster.I2_2XLarge(1), cell.fs1, cell.spec1)
	if err != nil {
		return shuffleOut{}, err
	}
	after, c2, err := runSort(tr, cluster.I2_2XLarge(2), cell.fs2, cell.spec2)
	if err != nil {
		return shuffleOut{}, err
	}
	p, err := checkMonoJob(base, model.ClusterResources(c1))
	if err != nil {
		return shuffleOut{}, err
	}
	if _, err := checkMonoJob(after, model.ClusterResources(c2)); err != nil {
		return shuffleOut{}, err
	}
	var pred model.Prediction
	tr.span(spanPredict, func() { pred = model.Predict(p, model.ScaleDiskBW(2)) })
	out := shuffleOut{base: float64(base.Duration()), actual: float64(after.Duration()), predicted: pred.PredictedSeconds}
	out.errPct = relErrPct(out.predicted, out.actual)
	if h != nil {
		hashJob(h, base)
		hashJob(h, after)
		hashFloats(h, out.predicted)
	}
	if out.errPct > maxShufflePredErr {
		return out, fmt.Errorf("cell %dv, %d GB: 2× SSD prediction %.2f s vs actual %.2f s (%.1f%% off)",
			cell.Values, cell.GB, out.predicted, out.actual, out.errPct)
	}
	return out, nil
}

// runSort runs one sort on a fresh cluster.
func runSort(tr *tracer, spec cluster.MachineSpec, fs *dfs.FS, js *task.JobSpec) (*task.JobMetrics, *cluster.Cluster, error) {
	c, err := cluster.New(shuffleMachines, spec)
	if err != nil {
		return nil, nil, err
	}
	var ms []*task.JobMetrics
	tr.span(spanRunJobs, func() {
		ms, err = run.Jobs(c, fs, run.Options{Mode: run.Monotasks}, js)
	})
	if err != nil {
		return nil, nil, err
	}
	countEvents(tr, c)
	countJob(tr, ms[0])
	return ms[0], c, nil
}

func (w *shuffleWide) measure(d time.Duration, tr *tracer) (phase, error) {
	return closedLoop(d, minOpsFor(tailPct), func(i int) error {
		_, err := w.op(&w.cells[i%len(w.cells)], tr, nil)
		return err
	}), nil
}

func (w *shuffleWide) predErrPct() float64 { return w.worst }

// digest runs the run's first block of cells, which holds each value count
// once at seed-drawn sizes.
func (w *shuffleWide) digest() (uint64, error) {
	h := fnv.New64a()
	for i := range shuffleValueCounts {
		if _, err := w.op(&w.cells[i], nil, h); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

// ---------------------------------------------------------------------------
// job-stream: seeded Poisson streams of small sorts on 4 × M2_4XLarge, each
// run under both executors. The shape is the multijob experiment's
// (internal/figures/multijob.go): its cluster, job size, task counts, jobs
// per stream and offered loads, with its batch scenario's prod:adhoc pools.

const (
	streamMachines = 4
	streamJobs     = 12
	streamJobBytes = 6 * units.GB
	// streamCount is how many distinct streams a run draws — more than it
	// can complete.
	streamCount = 512
	// Many small tasks per job, as in the multijob experiment: slots are
	// non-preemptive, so short tasks keep fair-share rebalancing quick.
	streamMaps    = 64
	streamReduces = 32
	// streamWarmSeed is the arrival seed of the warm-up streams, the one the
	// multijob experiment uses.
	streamWarmSeed = 7
)

// streamLoads are the multijob experiment's offered loads. A stream at load
// ρ has a mean gap of soloSeconds / ρ between arrivals, where soloSeconds is
// one job's runtime alone on the cluster.
var streamLoads = []float64{0.4, 0.8}

// streamPools are the driver's pools: production work weighted 3:1 over
// ad-hoc queries.
var streamPools = jobsched.Config{Pools: []jobsched.PoolConfig{
	{Name: "prod", Weight: 3},
	{Name: "adhoc", Weight: 1},
}}

// stream is one Poisson stream at offered load ρ, with jobs alternating
// CPU-heavy and disk-heavy sorts and prod and adhoc pools.
func stream(name string, arrivalSeed int64, load, soloSeconds float64) workloads.MultiJob {
	return workloads.MultiJob{
		Name:             name,
		Jobs:             streamJobs,
		MeanInterarrival: soloSeconds / load,
		Seed:             arrivalSeed,
		JobBytes:         streamJobBytes,
		MapTasks:         streamMaps,
		ReduceTasks:      streamReduces,
		Pools:            []string{"prod", "adhoc"},
	}
}

// streamSpecs draws a run's streams from the seed: each stream's own
// arrival seed, and its load from blocks that hold each of streamLoads once,
// so every seed offers the same mix of loads.
func streamSpecs(seed int64, soloSeconds float64) []workloads.MultiJob {
	rng := rand.New(rand.NewSource(seed))
	loads := balanced(rng, streamCount, []int{1, 1})
	out := make([]workloads.MultiJob, streamCount)
	for i := range out {
		out[i] = stream(fmt.Sprintf("stream%03d", i), rng.Int63(), streamLoads[loads[i]], soloSeconds)
	}
	return out
}

type builtStream struct {
	fs   *dfs.FS
	subs []run.Submission
}

// buildStream lays a stream out on the cluster shape its runs use. The
// specs and block store are read-only during a run.
func buildStream(m workloads.MultiJob) (builtStream, error) {
	c, err := cluster.New(streamMachines, cluster.M2_4XLarge())
	if err != nil {
		return builtStream{}, err
	}
	env, err := workloads.NewEnv(c)
	if err != nil {
		return builtStream{}, err
	}
	arrivals, err := m.Build(env)
	if err != nil {
		return builtStream{}, err
	}
	subs := make([]run.Submission, len(arrivals))
	for j, a := range arrivals {
		subs[j] = run.Submission{Spec: a.Spec, At: a.At, Opts: jobsched.SubmitOptions{Pool: a.Pool}}
	}
	return builtStream{fs: env.FS, subs: subs}, nil
}

type jobStream struct {
	streams []builtStream
	worst   float64
}

func (w *jobStream) setup(seed int64, tr *tracer) error {
	// The prediction check runs the solo jobs the loads are calibrated on.
	solo, worst, err := streamSolo()
	if err != nil {
		return fmt.Errorf("prediction check: %w", err)
	}
	w.worst = worst
	specs := streamSpecs(seed, solo)
	for k, load := range streamLoads {
		specs = append(specs, stream(fmt.Sprintf("warm%d", k), streamWarmSeed, load, solo))
	}
	streams := make([]builtStream, len(specs))
	tr.span(spanBuild, func() {
		for i, m := range specs {
			if streams[i], err = buildStream(m); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	w.streams = streams[:streamCount]
	// Warm-up: one stream per load, the same on every seed.
	for i := range streamLoads {
		if err := w.op(&streams[streamCount+i], nil, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// streamSolo runs the streams' two job shapes alone, on the streams'
// cluster and on one with twice the disks. It returns the CPU-heavy job's
// runtime on the streams' cluster — the multijob experiment's load
// calibration — and the model's worst 2× disk-bandwidth prediction error.
func streamSolo() (soloSeconds, worst float64, err error) {
	doubled := cluster.M2_4XLarge()
	doubled.Disks = append(doubled.Disks, doubled.Disks...)
	for _, values := range []int{10, 50} {
		s := workloads.Sort{Name: fmt.Sprintf("solo-%dv", values), TotalBytes: streamJobBytes,
			ValuesPerKey: values, MapTasks: streamMaps, ReduceTasks: streamReduces}
		var durations [2]float64
		var pred model.Prediction
		for k, spec := range []cluster.MachineSpec{cluster.M2_4XLarge(), doubled} {
			c, err := cluster.New(streamMachines, spec)
			if err != nil {
				return 0, 0, err
			}
			env, err := workloads.NewEnv(c)
			if err != nil {
				return 0, 0, err
			}
			js, err := s.Build(env)
			if err != nil {
				return 0, 0, err
			}
			ms, err := run.Jobs(c, env.FS, run.Options{Mode: run.Monotasks}, js)
			if err != nil {
				return 0, 0, err
			}
			p, err := checkMonoJob(ms[0], model.ClusterResources(c))
			if err != nil {
				return 0, 0, err
			}
			durations[k] = float64(ms[0].Duration())
			if k == 0 {
				pred = model.Predict(p, model.ScaleDiskBW(2))
			}
		}
		if values == 10 {
			soloSeconds = durations[0]
		}
		worst = math.Max(worst, relErrPct(pred.PredictedSeconds, durations[1]))
	}
	return soloSeconds, worst, nil
}

// op runs a stream under the monotasks executor and then the pipelined
// Spark executor, each on a fresh cluster, and checks both. A non-nil h
// receives every job's timeline.
func (w *jobStream) op(s *builtStream, tr *tracer, h hash.Hash64) error {
	for _, mode := range []run.Mode{run.Monotasks, run.Spark} {
		c, err := cluster.New(streamMachines, cluster.M2_4XLarge())
		if err != nil {
			return err
		}
		var hs []*jobsched.JobHandle
		tr.span(spanRunJobs, func() {
			hs, err = run.JobsAt(c, s.fs, run.Options{Mode: mode, Sched: streamPools}, s.subs)
		})
		if err != nil {
			return err
		}
		countEvents(tr, c)
		res := model.ClusterResources(c)
		for j, jh := range hs {
			if jh == nil || !jh.Done() || jh.Failed() {
				return fmt.Errorf("%v: job %d did not finish", mode, j)
			}
			jm := jh.Metrics
			countJob(tr, jm)
			if mode == run.Monotasks {
				tr.span(spanPredict, func() { _, err = checkMonoJob(jm, res) })
			} else {
				// The pipelined executor records task spans only — no
				// monotask bytes for the conservation check or the model.
				err = checkFinished(jm)
			}
			if err != nil {
				return fmt.Errorf("%v: %w", mode, err)
			}
			if h != nil {
				hashJob(h, jm)
			}
		}
	}
	return nil
}

func (w *jobStream) measure(d time.Duration, tr *tracer) (phase, error) {
	return closedLoop(d, minOpsFor(tailPct), func(i int) error {
		if err := w.op(&w.streams[i%len(w.streams)], tr, nil); err != nil {
			return fmt.Errorf("stream %d: %w", i%len(w.streams), err)
		}
		return nil
	}), nil
}

func (w *jobStream) predErrPct() float64 { return w.worst }

// digest runs the run's first block of streams, which holds each load
// once, under both executors.
func (w *jobStream) digest() (uint64, error) {
	h := fnv.New64a()
	for i := range streamLoads {
		if err := w.op(&w.streams[i], nil, h); err != nil {
			return 0, fmt.Errorf("stream %d: %w", i, err)
		}
	}
	return h.Sum64(), nil
}
