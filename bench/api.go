package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/monospark"
	"repro/perf"
)

// api-records corpus shape: enough records that the real data plane, not
// just the simulator, does measurable work in each operation.
const (
	apiMachines   = 4
	apiPartitions = 16
	apiLines      = 3000
	apiWordsLine  = 10
	apiVocabulary = 2000
	apiSortPairs  = 4000
	apiJoinLeft   = 3000
	apiJoinRight  = 800
	apiJoinKeys   = 1000
)

// apiCorpus is one run's seeded records and the answers a direct Go
// computation gives for them.
type apiCorpus struct {
	lines       []string
	sortPairs   []any
	left, right []any

	wantCounts map[string]int
	wantSorted []string // "key|value", sorted
	wantJoin   []string // "key|left|right", sorted
}

// apiCorpora draws the corpus from the seed: Zipf-distributed words, random
// sort keys, and two keyed tables whose keys partly overlap.
func apiCorpora(seed int64) *apiCorpus {
	rng := rand.New(rand.NewSource(seed))
	c := &apiCorpus{wantCounts: map[string]int{}}
	zipf := rand.NewZipf(rng, 1.1, 1, apiVocabulary-1)
	words := make([]string, apiWordsLine)
	for i := 0; i < apiLines; i++ {
		for j := range words {
			words[j] = fmt.Sprintf("w%04d", zipf.Uint64())
			c.wantCounts[words[j]]++
		}
		c.lines = append(c.lines, strings.Join(words, " "))
	}
	for i := 0; i < apiSortPairs; i++ {
		p := monospark.Pair{Key: fmt.Sprintf("%08d", rng.Intn(100000000)), Value: i}
		c.sortPairs = append(c.sortPairs, p)
		c.wantSorted = append(c.wantSorted, fmt.Sprintf("%s|%v", p.Key, p.Value))
	}
	sort.Strings(c.wantSorted)
	rightByKey := map[string][]int{}
	for i := 0; i < apiJoinRight; i++ {
		p := monospark.Pair{Key: fmt.Sprintf("k%04d", rng.Intn(apiJoinKeys)), Value: i}
		c.right = append(c.right, p)
		rightByKey[p.Key] = append(rightByKey[p.Key], i)
	}
	for i := 0; i < apiJoinLeft; i++ {
		p := monospark.Pair{Key: fmt.Sprintf("k%04d", rng.Intn(apiJoinKeys)), Value: i}
		c.left = append(c.left, p)
		for _, r := range rightByKey[p.Key] {
			c.wantJoin = append(c.wantJoin, fmt.Sprintf("%s|%d|%d", p.Key, i, r))
		}
	}
	sort.Strings(c.wantJoin)
	return c
}

type apiRecords struct {
	corpus *apiCorpus
	worst  float64
}

func (w *apiRecords) setup(seed int64, tr *tracer) error {
	tr.span(spanBuild, func() { w.corpus = apiCorpora(seed) })
	// Prediction check: the three jobs on 2 HDDs per machine, asked what
	// twice the disk bandwidth would do, against the same jobs on 4 HDDs.
	worst, err := w.predErr(nil)
	if err != nil {
		return fmt.Errorf("prediction check: %w", err)
	}
	w.worst = worst
	// Warm-up.
	if err := w.op(nil, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// predErr runs the prediction check and returns its worst error. A non-nil
// h receives both runs' monotask records and the predictions.
func (w *apiRecords) predErr(h hash.Hash64) (float64, error) {
	base, err := w.jobs(monospark.Hardware{HDDs: 2}, nil, h)
	if err != nil {
		return 0, err
	}
	doubled, err := w.jobs(monospark.Hardware{HDDs: 4}, nil, h)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i, r := range base {
		pred, err := r.Predict(perf.ScaleDisks(2))
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, relErrPct(pred.Predicted.Seconds(), doubled[i].Duration().Seconds()))
		if h != nil {
			fmt.Fprintf(h, "%+v\n", pred)
		}
	}
	return worst, nil
}

// jobs runs word count, SortByKey and Join on a fresh Context, checks each
// answer against the direct computation, and returns the three runs. A
// non-nil h receives each job's records and monotask records.
func (w *apiRecords) jobs(hw monospark.Hardware, tr *tracer, h hash.Hash64) ([]*monospark.JobRun, error) {
	ctx, err := monospark.New(monospark.Config{Machines: apiMachines, Hardware: hw})
	if err != nil {
		return nil, err
	}
	c := w.corpus
	lines, err := ctx.TextFile("corpus", c.lines, apiPartitions)
	if err != nil {
		return nil, err
	}
	counts := lines.
		FlatMap(func(v any) []any {
			fields := strings.Fields(v.(string))
			out := make([]any, len(fields))
			for i, f := range fields {
				out[i] = f
			}
			return out
		}).
		MapToPair(func(v any) monospark.Pair { return monospark.Pair{Key: v.(string), Value: 1} }).
		ReduceByKey(func(a, b any) any { return a.(int) + b.(int) })
	pairs, err := ctx.Parallelize(c.sortPairs, apiPartitions)
	if err != nil {
		return nil, err
	}
	left, err := ctx.Parallelize(c.left, apiPartitions)
	if err != nil {
		return nil, err
	}
	right, err := ctx.Parallelize(c.right, apiPartitions)
	if err != nil {
		return nil, err
	}
	joined, err := left.Join(right)
	if err != nil {
		return nil, err
	}
	var runs []*monospark.JobRun
	for _, job := range []struct {
		name  string
		ds    *monospark.Dataset
		check func([]any) error
		want  func() []string
	}{
		{"word count", counts, c.checkCounts, c.sortedCounts},
		{"sort", pairs.SortByKey(), c.checkSorted, func() []string { return c.wantSorted }},
		{"join", joined, c.checkJoin, func() []string { return c.wantJoin }},
	} {
		var recs []any
		var r *monospark.JobRun
		tr.span(spanCollect, func() { recs, r, err = job.ds.Collect() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", job.name, err)
		}
		tr.add("monospark.records", float64(len(recs)))
		if err := job.check(recs); err != nil {
			return nil, fmt.Errorf("%s: %w", job.name, err)
		}
		if h != nil {
			// The records are checked equal to the direct answer, which is
			// sorted; hash it rather than the run's arrival order.
			for _, rec := range job.want() {
				fmt.Fprintln(h, rec)
			}
			if err := r.WriteTraceJSONL(h); err != nil {
				return nil, fmt.Errorf("%s: %w", job.name, err)
			}
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// op is one API operation: the three jobs, then Explain and Predict on
// each, with the identity prediction checked against the run. A non-nil h
// receives the jobs' outputs (see jobs) and every explanation and
// prediction.
func (w *apiRecords) op(tr *tracer, h hash.Hash64) error {
	runs, err := w.jobs(monospark.Hardware{}, tr, h)
	if err != nil {
		return err
	}
	for _, r := range runs {
		tr.span(spanPredict, func() { err = explainAndPredict(r, h) })
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
	}
	return nil
}

func explainAndPredict(r *monospark.JobRun, h hash.Hash64) error {
	stages, err := r.Explain()
	if err != nil {
		return err
	}
	if len(stages) == 0 || stages[0].Bottleneck == "" {
		return fmt.Errorf("explain returned %d stages", len(stages))
	}
	same, err := r.Predict()
	if err != nil {
		return err
	}
	// The model's baseline is the sum of stage durations, which exceeds the
	// job's span when stages overlap (a join's two parents); the identity
	// what-if must return that baseline unchanged.
	if !closeTo(same.Predicted.Seconds(), same.Current.Seconds()) {
		return fmt.Errorf("identity what-if predicts %v for a %v baseline", same.Predicted, same.Current)
	}
	faster, err := r.Predict(perf.ScaleDisks(2), perf.ScaleNetwork(2))
	if err != nil {
		return err
	}
	if !(faster.Predicted > 0 && faster.Predicted <= faster.Current) {
		return fmt.Errorf("faster hardware predicted %v for a %v baseline", faster.Predicted, faster.Current)
	}
	if h != nil {
		fmt.Fprintf(h, "%+v\n%+v\n%+v\n", stages, same, faster)
	}
	return nil
}

// sortedCounts renders the direct word counts as sorted "word|count" lines.
func (c *apiCorpus) sortedCounts() []string {
	out := make([]string, 0, len(c.wantCounts))
	for word, n := range c.wantCounts {
		out = append(out, fmt.Sprintf("%s|%d", word, n))
	}
	sort.Strings(out)
	return out
}

func (c *apiCorpus) checkCounts(recs []any) error {
	if len(recs) != len(c.wantCounts) {
		return fmt.Errorf("%d distinct words, want %d", len(recs), len(c.wantCounts))
	}
	for _, rec := range recs {
		p := rec.(monospark.Pair)
		if got, want := p.Value.(int), c.wantCounts[p.Key]; got != want {
			return fmt.Errorf("word %q counted %d times, want %d", p.Key, got, want)
		}
	}
	return nil
}

func (c *apiCorpus) checkSorted(recs []any) error {
	got := make([]string, len(recs))
	for i, rec := range recs {
		p := rec.(monospark.Pair)
		if i > 0 && p.Key < recs[i-1].(monospark.Pair).Key {
			return fmt.Errorf("record %d key %q sorts before its predecessor", i, p.Key)
		}
		got[i] = fmt.Sprintf("%s|%v", p.Key, p.Value)
	}
	return sameSorted("sorted records", got, c.wantSorted)
}

func (c *apiCorpus) checkJoin(recs []any) error {
	got := make([]string, len(recs))
	for i, rec := range recs {
		p := rec.(monospark.Pair)
		lr := p.Value.([2]any)
		got[i] = fmt.Sprintf("%s|%v|%v", p.Key, lr[0], lr[1])
	}
	return sameSorted("joined rows", got, c.wantJoin)
}

// sameSorted compares got, in any order, with the sorted want.
func sameSorted(what string, got, want []string) error {
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("%d %s, want %d", len(got), what, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s differ: %q, want %q", what, got[i], want[i])
		}
	}
	return nil
}

func (w *apiRecords) measure(d time.Duration, tr *tracer) (phase, error) {
	return closedLoop(d, minOpsFor(tailPct), func(int) error { return w.op(tr, nil) }), nil
}

func (w *apiRecords) predErrPct() float64 { return w.worst }

// digest runs the prediction check and one operation, hashing their
// records, monotask records, explanations and predictions.
func (w *apiRecords) digest() (uint64, error) {
	h := fnv.New64a()
	if _, err := w.predErr(h); err != nil {
		return 0, err
	}
	if err := w.op(nil, h); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
