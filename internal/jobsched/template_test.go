package jobsched

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

func diamondSpec(name string, tasks int) *task.JobSpec {
	return &task.JobSpec{Name: name, Stages: []*task.StageSpec{
		{ID: 0, Name: "a", NumTasks: tasks, InputFromMem: true, InputBytesPerTask: 1 << 20, OpCPU: 0.001, ShuffleOutBytes: 1 << 20},
		{ID: 1, Name: "b", NumTasks: tasks, ParentIDs: []int{0}, OpCPU: 0.001, ShuffleOutBytes: 1 << 20},
		{ID: 2, Name: "c", NumTasks: tasks, ParentIDs: []int{0}, OpCPU: 0.001, ShuffleOutBytes: 1 << 20},
		{ID: 3, Name: "d", NumTasks: tasks, ParentIDs: []int{1, 2}, OpCPU: 0.001},
	}}
}

func TestBuildTemplateShape(t *testing.T) {
	tpl := buildTemplate(diamondSpec("diamond", 3))
	if tpl.numStages != 4 || tpl.totalTasks != 12 {
		t.Fatalf("template shape = %d stages / %d tasks, want 4 / 12", tpl.numStages, tpl.totalTasks)
	}
	wantChildren := [][]int{{1, 2}, {3}, {3}, nil}
	for i, want := range wantChildren {
		got := tpl.children[i]
		if len(got) != len(want) {
			t.Fatalf("stage %d children = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("stage %d children = %v, want %v", i, got, want)
			}
		}
	}
	if w := tpl.waitingOn; w[0] != 0 || w[1] != 1 || w[2] != 1 || w[3] != 2 {
		t.Fatalf("waitingOn = %v, want [0 1 1 2]", w)
	}
	if h := tpl.hasChildren; !h[0] || !h[1] || !h[2] || h[3] {
		t.Fatalf("hasChildren = %v, want [true true true false]", h)
	}
}

func TestTemplateCacheReuseAndBypass(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	specA := diamondSpec("a", 3)
	tplA := d.templateFor(specA)
	if got := d.templateFor(diamondSpec("b", 3)); got != tplA {
		t.Fatal("same-shaped spec did not hit the template cache")
	}
	if got := d.templateFor(diamondSpec("c", 5)); got == tplA {
		t.Fatal("different task count reused a mismatched template")
	}

	if d.templateHits != 1 {
		t.Fatalf("templateHits = %d, want 1", d.templateHits)
	}

	// Bypass: every lookup builds fresh, even on a warm cache.
	d.noTemplateCache = true
	if got := d.templateFor(specA); got == tplA {
		t.Fatal("bypassed driver still served the cached template")
	}
	if second := d.templateFor(specA); second == d.templateFor(specA) {
		t.Fatal("bypassed driver memoized templates")
	}
	if d.templateHits != 1 {
		t.Fatalf("bypassed lookups counted as hits: templateHits = %d", d.templateHits)
	}
}

// TestTemplateCollisionGuard forces two differently-shaped specs onto one
// cache key and checks the structural re-validation bypasses the stale hit.
func TestTemplateCollisionGuard(t *testing.T) {
	_, d := monoDriver(t, 2, Config{})
	specA := diamondSpec("a", 3)
	tplA := d.templateFor(specA)
	// The real fingerprint includes parent edges, so two different shapes
	// never share a key in practice; plant the stale template by hand to
	// exercise the guard.
	specB := diamondSpec("b", 3)
	specB.Stages[3].ParentIDs = []int{1}
	d.templates[string(d.fingerprint(specB))] = tplA
	got := d.templateFor(specB)
	if got == tplA {
		t.Fatal("collision guard accepted a structurally mismatched template")
	}
	if got.waitingOn[3] != 1 {
		t.Fatalf("fresh template waitingOn[3] = %d, want 1", got.waitingOn[3])
	}
}

// TestInstantiateMatchesDirectBuild submits the same diamond through a
// cached template and through a cache-bypassing driver and compares every
// piece of initial stage state.
func TestInstantiateMatchesDirectBuild(t *testing.T) {
	_, cached := monoDriver(t, 2, Config{})
	_, direct := monoDriver(t, 2, Config{})
	direct.noTemplateCache = true
	if _, err := cached.Submit(diamondSpec("warm", 3)); err != nil {
		t.Fatal(err)
	}
	ha, err := cached.Submit(diamondSpec("a", 3))
	if err != nil {
		t.Fatal(err)
	}
	if cached.templateHits != 1 {
		t.Fatalf("second submission missed the template cache (hits = %d)", cached.templateHits)
	}
	hb, err := direct.Submit(diamondSpec("b", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ha.stages) != len(hb.stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(ha.stages), len(hb.stages))
	}
	for i := range ha.stages {
		a, b := ha.stages[i], hb.stages[i]
		if a.waitingOn != b.waitingOn || a.hasChildren != b.hasChildren {
			t.Fatalf("stage %d state differs: waitingOn %d/%d hasChildren %v/%v",
				i, a.waitingOn, b.waitingOn, a.hasChildren, b.hasChildren)
		}
		if len(a.attempts) != a.spec.NumTasks || len(b.attempts) != b.spec.NumTasks {
			t.Fatalf("stage %d attempts sized %d/%d, want %d", i, len(a.attempts), len(b.attempts), a.spec.NumTasks)
		}
	}
}

// TestTemplateCacheStreamBitIdentical runs one arrival stream of same-shaped
// jobs on a single driver twice — with the template cache, and with it
// bypassed — and requires the cache to serve hits and every per-job metric
// to match at full float precision. Reused templates must never leak
// control-plane state from one job into the next.
func TestTemplateCacheStreamBitIdentical(t *testing.T) {
	const jobs = 10
	stream := func(bypass bool) (string, int) {
		c, d := monoDriver(t, 3, Config{})
		d.noTemplateCache = bypass
		handles := make([]*JobHandle, jobs)
		for i := range handles {
			// Staggered arrivals overlap jobs at different DAG phases.
			c.Engine.At(sim.Time(0.7*float64(i)), func() {
				h, err := d.Submit(diamondSpec(fmt.Sprintf("j%d", i), 6))
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
				}
				handles[i] = h
			})
		}
		d.Run()
		var b strings.Builder
		for i, h := range handles {
			if h == nil || !h.Done() {
				t.Fatalf("bypass=%v: job %d did not complete", bypass, i)
			}
			writeJobMetrics(&b, h.Metrics)
		}
		return b.String(), d.templateHits
	}
	cached, hits := stream(false)
	direct, bypassHits := stream(true)
	if hits != jobs-1 {
		t.Fatalf("cached stream served %d template hits, want %d", hits, jobs-1)
	}
	if bypassHits != 0 {
		t.Fatalf("bypassed stream served %d template hits", bypassHits)
	}
	if cached != direct {
		t.Fatalf("template cache changed per-job metrics:\ncached:\n%s\ndirect:\n%s", cached, direct)
	}
}

// writeJobMetrics renders every timestamp of a job's metrics exactly (the
// shortest round-tripping float form), with its task placement.
func writeJobMetrics(b *strings.Builder, jm *task.JobMetrics) {
	f := func(v sim.Time) string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }
	fmt.Fprintf(b, "%s %s %s\n", jm.Name, f(jm.Start), f(jm.End))
	for _, st := range jm.Stages {
		fmt.Fprintf(b, " stage %d %s %s\n", st.Spec.ID, f(st.Start), f(st.End))
		for _, tm := range st.Tasks {
			fmt.Fprintf(b, "  task %d m%d %s %s", tm.Index, tm.Machine, f(tm.Start), f(tm.End))
			for _, m := range tm.Monotasks {
				fmt.Fprintf(b, " %v", m)
			}
			b.WriteByte('\n')
		}
	}
}
