package jobsched

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/pipeexec"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
)

// fakeExec is a scripted executor for driver-behaviour tests: every task
// takes a fixed duration and the executor records the in-flight high-water
// mark.
type fakeExec struct {
	id       int
	slots    int
	duration sim.Duration
	eng      *sim.Engine

	inflight    int
	maxInflight int
	launched    []int // task indices in launch order
}

func (f *fakeExec) MachineID() int          { return f.id }
func (f *fakeExec) MaxConcurrentTasks() int { return f.slots }
func (f *fakeExec) Launch(t *task.Task, done func(*task.TaskMetrics)) {
	f.inflight++
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
	f.launched = append(f.launched, t.Index)
	start := f.eng.Now()
	f.eng.After(f.duration, func() {
		f.inflight--
		done(&task.TaskMetrics{
			StageID: t.Stage.ID, Index: t.Index, Machine: t.Machine,
			Start: start, End: f.eng.Now(),
		})
	})
}

func testCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	spec := cluster.MachineSpec{
		Cores: 2,
		Disks: []resource.DiskSpec{
			{Kind: resource.HDD, SeqBW: 100e6, ContentionAlpha: 0.35},
		},
		NetBW:    100e6,
		MemBytes: 1 << 30,
	}
	c, err := cluster.New(n, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fakeDriver(t *testing.T, c *cluster.Cluster, slots int, dur sim.Duration) (*Driver, []*fakeExec) {
	t.Helper()
	fs, _ := dfs.New(dfs.Config{Machines: c.Size(), DisksPerMachine: 1})
	fakes := make([]*fakeExec, c.Size())
	execs := make([]task.Executor, c.Size())
	for i := range fakes {
		fakes[i] = &fakeExec{id: i, slots: slots, duration: dur, eng: c.Engine}
		execs[i] = fakes[i]
	}
	d, err := NewWithConfig(c, fs, execs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d, fakes
}

func TestSingleStageRunsAllTasks(t *testing.T) {
	c := testCluster(t, 2)
	d, fakes := fakeDriver(t, c, 2, 1)
	job := &task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "s", NumTasks: 8, OpCPU: 1},
	}}
	h, err := d.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	ms := d.Run()
	if !h.Done() {
		t.Fatal("job not done")
	}
	// 8 tasks, 4 slots total, 1 s each: two waves, ends at 2.
	if ms[0].Duration() != 2 {
		t.Fatalf("job took %v, want 2 (two waves)", ms[0].Duration())
	}
	total := 0
	for _, f := range fakes {
		total += len(f.launched)
		if f.maxInflight > 2 {
			t.Fatalf("worker %d ran %d tasks at once, slots=2", f.id, f.maxInflight)
		}
	}
	if total != 8 {
		t.Fatalf("launched %d tasks, want 8", total)
	}
	for i, tm := range ms[0].Stages[0].Tasks {
		if tm == nil {
			t.Fatalf("task %d has no metrics", i)
		}
	}
}

func TestStageBarrier(t *testing.T) {
	c := testCluster(t, 2)
	d, fakes := fakeDriver(t, c, 4, 1)
	job := &task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "map", NumTasks: 4, OpCPU: 1, ShuffleOutBytes: 100},
		{ID: 1, Name: "reduce", NumTasks: 4, OpCPU: 1, ParentIDs: []int{0}},
	}}
	if _, err := d.Submit(job); err != nil {
		t.Fatal(err)
	}
	ms := d.Run()
	m0, m1 := ms[0].Stages[0], ms[0].Stages[1]
	if m1.Start < m0.End {
		t.Fatalf("reduce started at %v before map ended at %v", m1.Start, m0.End)
	}
	_ = fakes
}

func TestShuffleFetchesResolved(t *testing.T) {
	c := testCluster(t, 2)
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 1})
	// Capture resolved tasks with a recording executor.
	var reduceTasks []*task.Task
	fakes := make([]task.Executor, 2)
	for i := 0; i < 2; i++ {
		i := i
		fakes[i] = &recordingExec{fakeExec: fakeExec{id: i, slots: 4, duration: 1, eng: c.Engine}, record: func(tk *task.Task) {
			if tk.Stage.ID == 1 {
				reduceTasks = append(reduceTasks, tk)
			}
		}}
	}
	d, _ := NewWithConfig(c, fs, fakes, Config{})
	job := &task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "map", NumTasks: 4, OpCPU: 1, ShuffleOutBytes: 1000},
		{ID: 1, Name: "reduce", NumTasks: 2, OpCPU: 1, ParentIDs: []int{0}},
	}}
	d.Submit(job)
	d.Run()
	if len(reduceTasks) != 2 {
		t.Fatalf("captured %d reduce tasks, want 2", len(reduceTasks))
	}
	var total int64
	for _, tk := range reduceTasks {
		if len(tk.Fetches) == 0 {
			t.Fatal("reduce task resolved with no fetches")
		}
		for _, f := range tk.Fetches {
			total += f.Bytes
			if f.Stage != 0 {
				t.Fatalf("fetch names parent stage %d, want 0", f.Stage)
			}
		}
	}
	if total != 4000 {
		t.Fatalf("reduce fetches total %d bytes, want 4000 (conservation)", total)
	}
}

type recordingExec struct {
	fakeExec
	record func(*task.Task)
}

func (r *recordingExec) Launch(t *task.Task, done func(*task.TaskMetrics)) {
	r.record(t)
	r.fakeExec.Launch(t, done)
}

func TestLocalityPreferred(t *testing.T) {
	c := testCluster(t, 4)
	fs, _ := dfs.New(dfs.Config{Machines: 4, DisksPerMachine: 1})
	f, err := fs.Create("/in", 8*dfs.DefaultBlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	var remote int
	execs := make([]task.Executor, 4)
	for i := 0; i < 4; i++ {
		execs[i] = &recordingExec{fakeExec: fakeExec{id: i, slots: 2, duration: 1, eng: c.Engine}, record: func(tk *task.Task) {
			if tk.RemoteRead != nil {
				remote++
			}
		}}
	}
	d, _ := NewWithConfig(c, fs, execs, Config{})
	job := &task.JobSpec{Name: "j", Stages: []*task.StageSpec{
		{ID: 0, Name: "map", NumTasks: 8, OpCPU: 1, InputBlocks: f.Blocks},
	}}
	d.Submit(job)
	d.Run()
	// Blocks are spread 2 per machine and each machine has 2 slots: a
	// locality-aware scheduler reads everything locally.
	if remote != 0 {
		t.Fatalf("%d tasks read remotely, want 0 (locality)", remote)
	}
}

func TestConcurrentJobsShareFairly(t *testing.T) {
	c := testCluster(t, 1)
	d, fakes := fakeDriver(t, c, 2, 1)
	mk := func(name string) *task.JobSpec {
		return &task.JobSpec{Name: name, Stages: []*task.StageSpec{
			{ID: 0, Name: "s", NumTasks: 4, OpCPU: 1},
		}}
	}
	ha, _ := d.Submit(mk("a"))
	hb, _ := d.Submit(mk("b"))
	ms := d.Run()
	// 8 tasks on 2 slots: 4 waves, total 4 s; with fair sharing both jobs
	// finish near the end rather than job a monopolizing the first 2 s.
	if ms[0].End != 4 && ms[1].End != 4 {
		t.Fatalf("ends %v, %v; one job should finish at 4", ms[0].End, ms[1].End)
	}
	if ha.Metrics.End <= 2 || hb.Metrics.End <= 2 {
		t.Fatalf("ends %v, %v: looks like FIFO, want fair interleaving",
			ha.Metrics.End, hb.Metrics.End)
	}
	_ = fakes
}

func TestDriverWithMonotasksExecutor(t *testing.T) {
	c := testCluster(t, 2)
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 1})
	f, _ := fs.Create("/in", 4*dfs.DefaultBlockSize, 1)
	g := core.NewGroup(c, core.Options{})
	execs := make([]task.Executor, 2)
	for i, w := range g.Workers {
		execs[i] = w
	}
	d, _ := NewWithConfig(c, fs, execs, Config{})
	job := &task.JobSpec{Name: "wc", Stages: []*task.StageSpec{
		{ID: 0, Name: "map", NumTasks: 4, OpCPU: 0.5, InputBlocks: f.Blocks, ShuffleOutBytes: 16e6},
		{ID: 1, Name: "reduce", NumTasks: 2, OpCPU: 0.3, ParentIDs: []int{0}, OutputBytes: 8e6},
	}}
	d.Submit(job)
	ms := d.Run()
	if ms[0].Duration() <= 0 {
		t.Fatal("mono job has non-positive duration")
	}
	// Monotask metrics must be present and complete.
	st0 := ms[0].Stages[0]
	if got := st0.MonotaskBytes(task.DiskResource, task.KindInputRead); got != 4*dfs.DefaultBlockSize {
		t.Fatalf("input read bytes %d, want %d", got, 4*dfs.DefaultBlockSize)
	}
	if got := st0.MonotaskBytes(task.DiskResource, task.KindShuffleWrite); got != 4*16e6 {
		t.Fatalf("shuffle write bytes %d, want %d", got, int64(4*16e6))
	}
	st1 := ms[0].Stages[1]
	wantShuffleRead := int64(4 * 16e6)
	gotShuffleRead := st1.MonotaskBytes(task.DiskResource, task.KindShuffleServeRead) // local + serve reads
	if gotShuffleRead != wantShuffleRead {
		t.Fatalf("shuffle reads %d bytes, want %d", gotShuffleRead, wantShuffleRead)
	}
}

func TestDriverWithPipelinedExecutor(t *testing.T) {
	c := testCluster(t, 2)
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 1})
	f, _ := fs.Create("/in", 4*dfs.DefaultBlockSize, 1)
	g := pipeexec.NewGroup(c, pipeexec.Options{})
	execs := make([]task.Executor, 2)
	for i, w := range g.Workers {
		execs[i] = w
	}
	d, _ := NewWithConfig(c, fs, execs, Config{})
	job := &task.JobSpec{Name: "wc", Stages: []*task.StageSpec{
		{ID: 0, Name: "map", NumTasks: 4, OpCPU: 0.5, InputBlocks: f.Blocks, ShuffleOutBytes: 16e6},
		{ID: 1, Name: "reduce", NumTasks: 2, OpCPU: 0.3, ParentIDs: []int{0}, OutputBytes: 8e6},
	}}
	d.Submit(job)
	ms := d.Run()
	if ms[0].Duration() <= 0 {
		t.Fatal("pipelined job has non-positive duration")
	}
	for _, st := range ms[0].Stages {
		for _, tm := range st.Tasks {
			if len(tm.Monotasks) != 0 {
				t.Fatal("pipelined executor must not report monotasks")
			}
		}
	}
}

func TestInMemoryInputStage(t *testing.T) {
	c := testCluster(t, 1)
	var seen *task.Task
	execs := []task.Executor{&recordingExec{
		fakeExec: fakeExec{id: 0, slots: 1, duration: 1, eng: c.Engine},
		record:   func(tk *task.Task) { seen = tk },
	}}
	fs, _ := dfs.New(dfs.Config{Machines: 1, DisksPerMachine: 1})
	d, _ := NewWithConfig(c, fs, execs, Config{})
	job := &task.JobSpec{Name: "m", Stages: []*task.StageSpec{
		{ID: 0, Name: "cached", NumTasks: 1, OpCPU: 1, InputFromMem: true, InputBytesPerTask: 123},
	}}
	d.Submit(job)
	d.Run()
	if seen == nil || seen.MemReadBytes != 123 {
		t.Fatalf("resolved task = %+v, want MemReadBytes=123", seen)
	}
}

func TestSubmitErrors(t *testing.T) {
	c := testCluster(t, 1)
	d, _ := fakeDriver(t, c, 1, 1)
	if _, err := d.Submit(&task.JobSpec{Name: "empty"}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestNewErrors(t *testing.T) {
	c := testCluster(t, 2)
	fs, _ := dfs.New(dfs.Config{Machines: 2, DisksPerMachine: 1})
	if _, err := NewWithConfig(c, fs, nil, Config{}); err == nil {
		t.Fatal("executor count mismatch accepted")
	}
	bad := []task.Executor{
		&fakeExec{id: 1, slots: 1, duration: 1, eng: c.Engine},
		&fakeExec{id: 0, slots: 1, duration: 1, eng: c.Engine},
	}
	if _, err := NewWithConfig(c, fs, bad, Config{}); err == nil {
		t.Fatal("misordered executors accepted")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		c := testCluster(t, 4)
		fs, _ := dfs.New(dfs.Config{Machines: 4, DisksPerMachine: 1})
		f, _ := fs.Create("/in", 16*dfs.DefaultBlockSize, 1)
		g := core.NewGroup(c, core.Options{})
		execs := make([]task.Executor, 4)
		for i, w := range g.Workers {
			execs[i] = w
		}
		d, _ := NewWithConfig(c, fs, execs, Config{})
		job := &task.JobSpec{Name: "j", Stages: []*task.StageSpec{
			{ID: 0, Name: "map", NumTasks: 16, OpCPU: 0.5, InputBlocks: f.Blocks, ShuffleOutBytes: 32e6},
			{ID: 1, Name: "reduce", NumTasks: 8, OpCPU: 0.3, ParentIDs: []int{0}, OutputBytes: 8e6},
		}}
		d.Submit(job)
		return d.Run()[0].End
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
