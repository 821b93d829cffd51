package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/whatifsvc"
)

// The request mix below is an assumption: the repository has no served
// traffic to measure a rate or shares from. The choices are made to keep
// every path of the service busy — misses and memo hits, telemetry and
// none, every workload kind and what-if kind — at a rate the host serves
// with room to spare.
const (
	// whatifRate is the open loop's fixed arrival rate, requests per host
	// second, spaced evenly. With at most nproc requests in flight it keeps a
	// 2-CPU host well below capacity, and 20 s of it holds the 1000 requests
	// the p99 of the generator's lag needs.
	whatifRate = 120
	// whatifMachines is every question's cluster size.
	whatifMachines = 4
	// whatifRepeatTenths of every ten requests (after the first 64) repeat
	// one from 16–63 requests earlier — long since answered at this rate,
	// so they are memo hits.
	whatifRepeatTenths = 3
	// One in whatifTelemetryEvery fresh requests asks for telemetry.
	whatifTelemetryEvery = 5
	// whatifWarmMB is the input size of the warm-up questions, the middle
	// of the drawn range.
	whatifWarmMB = 4096
)

// whatifKinds are the workloads a question asks about, drawn 2:1:1.
var whatifKinds = []string{"sort", "wordcount", "readcompute"}

// whatifChanges are the what-ifs a question draws 1–3 of.
var whatifChanges = []whatifsvc.WhatIfSpec{
	{Kind: "scale_disk", Factor: 2},
	{Kind: "scale_net", Factor: 2},
	{Kind: "scale_cluster", Factor: 2},
	{Kind: "in_memory_input"},
	{Kind: "infinitely_fast", Resource: "cpu"},
	{Kind: "infinitely_fast", Resource: "disk"},
	{Kind: "infinitely_fast", Resource: "network"},
}

// whatifRequests draws n requests from the seed: sort, word count and
// read-compute questions on 4 machines in proportion 2:1:1, each with 1–3
// what-ifs, a share asking for telemetry and a share repeating an earlier
// request verbatim. Shares are exact within blocks (see balanced) and sizes
// stratified, so seeds differ in detail but not in mix.
func whatifRequests(seed int64, n int) []whatifsvc.Request {
	rng := rand.New(rand.NewSource(seed))
	repeats := balanced(rng, n, []int{10 - whatifRepeatTenths, whatifRepeatTenths})
	kinds := balanced(rng, n, []int{2, 1, 1})
	telemetry := balanced(rng, n, []int{whatifTelemetryEvery - 1, 1})
	values := balanced(rng, n, []int{1, 1, 1})
	changes := balanced(rng, n, []int{1, 1, 1})
	mbs := stratified(rng, n, 1024, 8192)
	out := make([]whatifsvc.Request, n)
	fresh := 0
	for i := range out {
		if i >= 64 && repeats[i] == 1 {
			out[i] = out[i-16-rng.Intn(48)]
			continue
		}
		f := fresh
		fresh++
		r := whatifsvc.Request{
			Tenant:    fmt.Sprintf("tenant%d", rng.Intn(4)),
			Workload:  whatifsvc.WorkloadSpec{Kind: whatifKinds[kinds[f]], TotalMB: int64(mbs[f])},
			Cluster:   whatifsvc.ClusterSpec{Machines: whatifMachines},
			Telemetry: telemetry[f] == 1,
		}
		if r.Workload.Kind == "sort" {
			r.Workload.ValuesPerKey = shuffleValueCounts[values[f]]
		}
		for _, j := range rng.Perm(len(whatifChanges))[:1+changes[f]] {
			r.WhatIfs = append(r.WhatIfs, whatifChanges[j])
		}
		out[i] = r
	}
	return out
}

// whatifDigestRequests draws the digest set from the seed: for each
// workload kind, one question per what-if kind, asking for 1–3 what-ifs,
// half of them with telemetry, at seed-drawn sizes.
func whatifDigestRequests(seed int64) []whatifsvc.Request {
	rng := rand.New(rand.NewSource(seed))
	n := len(whatifKinds) * len(whatifChanges)
	mbs := stratified(rng, n, 1024, 8192)
	var out []whatifsvc.Request
	for k, kind := range whatifKinds {
		for j := range whatifChanges {
			i := k*len(whatifChanges) + j
			r := whatifsvc.Request{
				Workload:  whatifsvc.WorkloadSpec{Kind: kind, TotalMB: int64(mbs[i])},
				Cluster:   whatifsvc.ClusterSpec{Machines: whatifMachines},
				Telemetry: i%2 == 1,
			}
			if kind == "sort" {
				r.Workload.ValuesPerKey = shuffleValueCounts[j%len(shuffleValueCounts)]
			}
			for c := 0; c <= i%3; c++ {
				r.WhatIfs = append(r.WhatIfs, whatifChanges[(j+c)%len(whatifChanges)])
			}
			out = append(out, r)
		}
	}
	return out
}

type whatifService struct {
	seed   int64
	reqs   []whatifsvc.Request
	bodies [][]byte
	worst  float64

	mu      sync.Mutex
	answers map[string][]byte // request body -> the first 200 body served for it
}

func (w *whatifService) setup(seed int64, tr *tracer) error {
	w.seed = seed
	// Enough requests for the longest phase the run can ask for.
	n := int(whatifRate*maxPhase.Seconds()) + 1
	tr.span(spanBuild, func() {
		w.reqs = whatifRequests(seed, n)
		w.bodies = make([][]byte, n)
		for i := range w.reqs {
			w.bodies[i], _ = json.Marshal(&w.reqs[i]) // plain structs: cannot fail
		}
	})
	w.answers = map[string][]byte{}

	// The prediction check and the warm-up go to their own service, so the
	// measured one starts with an empty memo.
	svc := whatifsvc.New(whatifsvc.Config{MaxConcurrent: runtime.NumCPU()})
	var err error
	if w.worst, err = whatifPredErr(svc); err != nil {
		return fmt.Errorf("prediction check: %w", err)
	}
	// Warm-up: one question per workload kind at a fixed size, the same on
	// every seed, each asked twice so the memo's hit path runs too.
	for k, kind := range whatifKinds {
		r := whatifsvc.Request{
			Workload:  whatifsvc.WorkloadSpec{Kind: kind, TotalMB: whatifWarmMB},
			Cluster:   whatifsvc.ClusterSpec{Machines: whatifMachines},
			WhatIfs:   []whatifsvc.WhatIfSpec{whatifChanges[k]},
			Telemetry: k == 0,
		}
		if kind == "sort" {
			r.Workload.ValuesPerKey = shuffleValueCounts[0]
		}
		body, _ := json.Marshal(&r)
		for range 2 {
			if _, err := w.ask(svc, &r, body, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// digest asks the run's digest set (see whatifDigestRequests) of a fresh
// service, each question twice, and hashes every answer.
func (w *whatifService) digest() (uint64, error) {
	svc := whatifsvc.New(whatifsvc.Config{MaxConcurrent: runtime.NumCPU()})
	h := fnv.New64a()
	for _, r := range whatifDigestRequests(w.seed) {
		body, _ := json.Marshal(&r)
		for range 2 {
			out, err := w.ask(svc, &r, body, nil)
			if err != nil {
				return 0, err
			}
			h.Write(out)
		}
	}
	return h.Sum64(), nil
}

// whatifPredErr asks the service the Fig. 11 question — a 4-machine sort on
// one SSD, what if disks were twice as fast — and checks each answer
// against the same sort served on two SSDs.
func whatifPredErr(svc *whatifsvc.Service) (float64, error) {
	worst := 0.0
	for _, values := range shuffleValueCounts {
		base := whatifsvc.Request{
			Workload: whatifsvc.WorkloadSpec{Kind: "sort", TotalMB: 4096, ValuesPerKey: values},
			Cluster:  whatifsvc.ClusterSpec{Machines: whatifMachines, Hardware: "ssd"},
			WhatIfs:  []whatifsvc.WhatIfSpec{{Kind: "scale_disk", Factor: 2}},
		}
		target := base
		target.Cluster.Hardware = "ssd2"
		target.WhatIfs = nil
		var got [2]whatifsvc.Response
		for k, r := range []whatifsvc.Request{base, target} {
			body, _ := json.Marshal(&r)
			code, out, _ := post(svc, body)
			if code != http.StatusOK {
				return 0, fmt.Errorf("status %d: %s", code, out)
			}
			if err := json.Unmarshal(out, &got[k]); err != nil {
				return 0, err
			}
			if err := checkAnswer(&r, &got[k]); err != nil {
				return 0, err
			}
		}
		worst = math.Max(worst, relErrPct(got[0].Predictions[0].PredictedSeconds, got[1].Jobs[0].Seconds))
	}
	return worst, nil
}

// post sends one /whatif request through the handler, with no sockets.
func post(svc *whatifsvc.Service, body []byte) (int, []byte, http.Header) {
	req := httptest.NewRequest(http.MethodPost, "/whatif", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Header()
}

// serve sends request i of the run and checks the answer.
func (w *whatifService) serve(svc *whatifsvc.Service, i int, tr *tracer) error {
	if _, err := w.ask(svc, &w.reqs[i], w.bodies[i], tr); err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	return nil
}

// ask sends one request, checks the answer and returns its body.
func (w *whatifService) ask(svc *whatifsvc.Service, req *whatifsvc.Request, body []byte, tr *tracer) ([]byte, error) {
	var code int
	var out []byte
	var hdr http.Header
	t0 := time.Now()
	if tr == nil {
		code, out, hdr = post(svc, body)
	} else {
		pprof.Do(context.Background(), pprof.Labels("span", spanServe), func(context.Context) {
			code, out, hdr = post(svc, body)
		})
	}
	el := time.Since(t0)
	hit := hdr.Get("X-Whatif-Memo") == "hit"
	if hit {
		tr.record(spanHit, el)
	} else {
		tr.record(spanMiss, el)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(out))
	}
	var resp whatifsvc.Response
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, err
	}
	if err := checkAnswer(req, &resp); err != nil {
		return nil, err
	}
	return out, w.checkMemo(body, out, hit)
}

// checkMemo verifies that every answer to the same request is byte for
// byte the first one — a memo hit must serve exactly what the miss that
// filled it produced.
func (w *whatifService) checkMemo(req, body []byte, hit bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.answers[string(req)]
	if !ok {
		w.answers[string(req)] = append([]byte(nil), body...)
		return nil
	}
	if !bytes.Equal(first, body) {
		return fmt.Errorf("answer (memo hit %v) differs from the first answer to the same request", hit)
	}
	return nil
}

// checkAnswer verifies a 200 answer is complete for its question.
func checkAnswer(req *whatifsvc.Request, resp *whatifsvc.Response) error {
	jobs := req.Workload.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	if resp.Aborted || len(resp.Jobs) != jobs {
		return fmt.Errorf("answer has %d of %d jobs (aborted %v)", len(resp.Jobs), jobs, resp.Aborted)
	}
	for _, j := range resp.Jobs {
		if !j.Finished || !(j.Seconds > 0) {
			return fmt.Errorf("job %s did not finish", j.Name)
		}
	}
	if len(resp.Predictions) != len(req.WhatIfs) {
		return fmt.Errorf("answer has %d predictions for %d what-ifs", len(resp.Predictions), len(req.WhatIfs))
	}
	for _, p := range resp.Predictions {
		if !(p.PredictedSeconds > 0) || !closeTo(p.CurrentSeconds, resp.Jobs[0].Seconds) {
			return fmt.Errorf("prediction %q: %g s predicted for a %g s run measured as %g s",
				p.Question, p.PredictedSeconds, p.CurrentSeconds, resp.Jobs[0].Seconds)
		}
	}
	if (resp.Telemetry != nil) != req.Telemetry {
		return fmt.Errorf("telemetry asked %v, answered %v", req.Telemetry, resp.Telemetry != nil)
	}
	return nil
}

// measure runs the open loop: request i is due at i/whatifRate seconds, is
// sent then or as soon as one of the nproc in-flight slots frees, and its
// latency runs from its due time, so a stall shows in every request it
// delays.
func (w *whatifService) measure(d time.Duration, tr *tracer) (phase, error) {
	nproc := runtime.NumCPU()
	svc := whatifsvc.New(whatifsvc.Config{MaxConcurrent: nproc})
	// Like a closed loop, a short phase runs on until the generator's lag
	// has its 1000 samples for a p99.
	n := max(int(whatifRate*d.Seconds()), minOpsFor(deepTailPct))
	if n > len(w.bodies) {
		return phase{}, fmt.Errorf("%v needs %d requests, set-up made %d", d, n, len(w.bodies))
	}
	var (
		p   phase
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, nproc)
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / whatifRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		lag := time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time, lag time.Duration) {
			defer wg.Done()
			err := w.serve(svc, i, tr)
			lat := time.Since(due)
			<-sem
			mu.Lock()
			p.done(lat, err)
			p.lag = append(p.lag, ms(lag))
			mu.Unlock()
		}(i, due, lag)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	if tr != nil {
		if err := countStats(svc, tr, p.attempted); err != nil {
			return p, err
		}
	}
	return p, nil
}

// countStats copies the service's own counters from /stats into the trace.
func countStats(svc *whatifsvc.Service, tr *tracer, requests int) error {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st struct {
		Shed       int64 `json:"shed"`
		MemoHits   int64 `json:"memo_hits"`
		FailedRuns int64 `json:"failed_runs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	tr.add("whatifsvc.requests", float64(requests))
	tr.add("whatifsvc.memo_hit_ratio", float64(st.MemoHits)/float64(requests))
	tr.add("whatifsvc.shed", float64(st.Shed))
	tr.add("whatifsvc.failed_runs", float64(st.FailedRuns))
	return nil
}

func (w *whatifService) predErrPct() float64 { return w.worst }
