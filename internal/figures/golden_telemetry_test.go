package figures

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// collectTelemetry returns harness options that run grids on `workers`
// workers with telemetry on, and a function returning every run's snapshot
// stream collected so far as one byte string. Sweep cells finish in arbitrary
// wall-clock order, so each run's ring is serialized into its own JSONL chunk
// and chunks are sorted canonically — the same scheme monobench --telemetry
// uses — making the result a pure function of the experiment set.
func collectTelemetry(t *testing.T, workers int) (Options, func() []byte) {
	t.Helper()
	var mu sync.Mutex
	var chunks [][]byte
	o := Options{Workers: workers, Telemetry: &telemetry.Config{}, OnTelemetry: func(s *telemetry.Sampler) {
		var buf bytes.Buffer
		err := telemetry.WriteJSONL(&buf, s.Snapshots())
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Error(err)
			return
		}
		chunks = append(chunks, buf.Bytes())
	}}
	return o, func() []byte {
		mu.Lock()
		defer mu.Unlock()
		sort.Slice(chunks, func(i, j int) bool { return bytes.Compare(chunks[i], chunks[j]) < 0 })
		return bytes.Join(chunks, nil)
	}
}

// telemetryStream runs the golden corpus (SortSized, both systems) plus a
// two-seed chaos matrix with telemetry on, on `workers` workers, and returns
// the canonical stream.
func telemetryStream(t *testing.T, workers int) []byte {
	t.Helper()
	o, stream := collectTelemetry(t, workers)
	if _, err := SortSized(o, 16*units.GB, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Chaos(o, 2); err != nil {
		t.Fatal(err)
	}
	return stream()
}

// TestGoldenTelemetryDeterminism extends the determinism gate to the live
// telemetry bus: the full snapshot stream of the golden corpus + chaos matrix
// must be byte-identical across two runs in one process and across sweep
// --parallel 1 vs 8. Sampling rides the simulator's event queue, so any
// divergence would mean either the sampler perturbed the simulation or the
// stream depends on scheduling outside virtual time.
func TestGoldenTelemetryDeterminism(t *testing.T) {
	a := telemetryStream(t, 1)
	if len(a) == 0 {
		t.Fatal("empty telemetry stream")
	}
	b := telemetryStream(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-process telemetry replay differs at:\n%s", firstDiffLine(b, a))
	}
	parallel := telemetryStream(t, 8)
	if !bytes.Equal(a, parallel) {
		t.Fatalf("telemetry stream diverged between --parallel 1 and 8 at:\n%s",
			firstDiffLine(parallel, a))
	}

	// Every run's stream ends with a Final snapshot carrying the cumulative
	// whole-run attribution (the live-equals-post-hoc handoff; exact equality
	// with a post-hoc model.Attribute call is pinned in internal/telemetry's
	// tests).
	snaps, err := telemetry.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	finals := 0
	for _, s := range snaps {
		if s.Final {
			finals++
			if len(s.Jobs) > 0 && len(s.Cumulative) != len(s.Jobs) {
				t.Fatalf("final snapshot lacks cumulative attribution: %+v", s)
			}
		}
	}
	// SortSized runs two systems; Chaos(2) runs four cells.
	if finals < 6 {
		t.Fatalf("%d final snapshots across the corpus, want ≥ 6", finals)
	}
}
