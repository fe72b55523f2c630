package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"avgloc/internal/fleet"
	"avgloc/internal/graphstore"
	"avgloc/internal/load"
	"avgloc/internal/measure"
	"avgloc/internal/obs"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// instance is one running avgserve -fleet with its avgworker and the load
// generator's instrumented client.
type instance struct {
	server, worker *child
	base           string
	rec            *recorder
	client         *http.Client
}

// control is the benchmark's own short-timeout client for readiness polls,
// scrapes and report fetches; it is never used for the measured load.
var control = &http.Client{Timeout: 30 * time.Second}

func (in *instance) stop() {
	in.worker.stop(10 * time.Second)
	in.server.stop(10 * time.Second)
}

// startInstance starts the processes, waits until the server is healthy
// (and the worker registered), and runs the untimed warm-up. The returned
// duration is set-up time: process start to ready, compilation excluded.
func startInstance(c *config, tracer *obs.Tracer) (*instance, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	in := &instance{base: "http://" + addr}
	in.rec, in.client = newRecorder(c.procs, tracer)

	start := time.Now()
	if in.server, err = startChild(c, "avgserve", "-addr", addr, "-workers", strconv.Itoa(c.procs), "-fleet"); err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*instance, float64, error) {
		in.stop()
		return nil, 0, err
	}
	if err := in.await("health", func() bool {
		resp, err := control.Get(in.base + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return fail(err)
	}
	if in.worker, err = startChild(c, "avgworker", "-coordinator", in.base); err != nil {
		return fail(err)
	}
	if err := in.await("worker registration", func() bool {
		var m serverMetrics
		return getJSON(in.base+"/v1/metrics", &m) == nil && m.FleetWorkers >= 1
	}); err != nil {
		return fail(err)
	}
	warm, err := warmPlan()
	if err != nil {
		return fail(err)
	}
	art, err := load.Run(warm, load.Options{BaseURL: in.base, Client: in.client, MaxInFlight: c.procs})
	if err != nil {
		return fail(err)
	}
	if rep := art.Report; rep.OK != rep.Requests || len(in.rec.streamErrs) > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d requests failed, %d specs in streams", rep.Requests-rep.OK, rep.Requests, len(in.rec.streamErrs)))
	}
	var m serverMetrics
	if err := getJSON(in.base+"/v1/metrics", &m); err != nil {
		return fail(err)
	}
	if f := faults(serverMetrics{}, m); len(f) > 0 {
		return fail(fmt.Errorf("warm-up: %s", strings.Join(f, "; ")))
	}
	setup := time.Since(start).Seconds()
	in.rec.reset()
	return in, setup, nil
}

// await polls ready every 5ms for up to 60s, failing early if a child
// process exits.
func (in *instance) await(what string, ready func() bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for !ready() {
		if in.server.exited() || (in.worker != nil && in.worker.exited()) {
			return fmt.Errorf("waiting for %s: a server process exited (see %s)", what, in.server.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("waiting for %s: timed out", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// serverMetrics is the part of GET /v1/metrics the benchmark reads.
type serverMetrics struct {
	Store         resultstore.Stats `json:"store"`
	GraphStore    graphstore.Stats  `json:"graphstore"`
	RunsCompleted int64             `json:"runs_completed"`
	RunsFailed    int64             `json:"runs_failed"`
	RunsFleet     int64             `json:"runs_fleet"`
	FleetWorkers  int               `json:"fleet_workers"`
	Fleet         *fleet.Stats      `json:"fleet"`
}

// faults compares the server's run counters before and after a load run.
// A batch or campaign reports a failed spec inside its 200 response, and
// avgserve falls back to local execution when the fleet fails, so request
// statuses alone would miss both: every run must succeed, and every
// executed run must come from the fleet.
func faults(before, after serverMetrics) []string {
	var out []string
	if n := after.RunsFailed - before.RunsFailed; n != 0 {
		out = append(out, fmt.Sprintf("%d runs failed on the server", n))
	}
	done, viaFleet := after.RunsCompleted-before.RunsCompleted, after.RunsFleet-before.RunsFleet
	if viaFleet != done {
		out = append(out, fmt.Sprintf("%d of %d executed runs bypassed the fleet", done-viaFleet, done))
	}
	return out
}

func getJSON(url string, v any) error {
	resp, err := control.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runSeconds reads avg_run_seconds' _sum and _count from GET /metrics.
func runSeconds(base string) (sum, count float64, err error) {
	resp, err := control.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "avg_run_seconds_sum "); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(line, "avg_run_seconds_count "); ok {
			count, _ = strconv.ParseFloat(v, 64)
		}
	}
	return sum, count, nil
}

// snapshot is the server-side state read around the measured run.
type snapshot struct {
	m               serverMetrics
	runSum, runCnt  float64
	serverCPU       float64
	workerCPU, self float64
}

func (in *instance) snapshot() (snapshot, error) {
	var s snapshot
	if err := getJSON(in.base+"/v1/metrics", &s.m); err != nil {
		return s, err
	}
	var err error
	if s.runSum, s.runCnt, err = runSeconds(in.base); err != nil {
		return s, err
	}
	s.serverCPU = in.server.cpuSeconds()
	s.workerCPU = in.worker.cpuSeconds()
	s.self = selfCPUSeconds()
	return s, nil
}

// loadResult is one measured load run.
type loadResult struct {
	plan *load.Plan
	art  *load.Artifact
	// nominalLags is how late (ms) each nominal-step request fired: a
	// generator that lags there distorts the reported latencies. Lag in the
	// overload step is expected, from the in-flight bound.
	nominalLags   []float64
	before, after snapshot
	wallS         float64 // run start to last response
	// Peak resident sets (VmHWM) of the server and worker, read before
	// the processes stop.
	serverRSS, workerRSS float64
	// pending is the fleet's pending-chunk gauge per /v1/metrics scrape
	// (traced runs only).
	pending []float64
	// nominalService is the service time (send to response end, ms) of
	// each request sent during the nominal step, and overService of each
	// sent from the start of the overload step on, while the generator's
	// in-flight budget is full.
	nominalService, overService []float64
	// streamErrs are the failed specs reported inside 200 responses.
	streamErrs []string
}

// doneUS is a request's completion offset from the run start.
func doneUS(l *load.ReqLine) int64 { return l.AtUS + l.LatUS }

func (in *instance) measure(c *config, plan *load.Plan) (*loadResult, error) {
	lr := &loadResult{plan: plan}
	var err error
	if lr.before, err = in.snapshot(); err != nil {
		return nil, err
	}
	lr.art, err = load.Run(plan, load.Options{
		BaseURL: in.base, Client: in.client, MaxInFlight: c.procs,
		SampleInterval: 250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if lr.after, err = in.snapshot(); err != nil {
		return nil, err
	}
	in.rec.mu.Lock()
	lr.pending = in.rec.pending
	served := in.rec.service
	lr.streamErrs = in.rec.streamErrs
	in.rec.mu.Unlock()
	lr.serverRSS = in.server.peakRSSMB()
	lr.workerRSS = in.worker.peakRSSMB()
	start, err := lr.art.StartTime()
	if err != nil {
		return nil, err
	}
	schedule, err := plan.Schedule()
	if err != nil {
		return nil, err
	}
	lags, unmatched := in.rec.lags(schedule, start)
	if unmatched > 0 {
		return nil, fmt.Errorf("%d scheduled requests have no recorded send", unmatched)
	}
	for i := range schedule {
		if schedule[i].Phase == nominalStep {
			lr.nominalLags = append(lr.nominalLags, lags[i])
		}
	}
	from := start.Add(time.Duration(plan.PhaseStartUS(nominalStep)) * time.Microsecond)
	to := start.Add(time.Duration(plan.PhaseStartUS(nominalStep+1)) * time.Microsecond)
	over := start.Add(time.Duration(plan.PhaseStartUS(overStep)) * time.Microsecond)
	for _, sv := range served {
		switch {
		case !sv.sent.Before(over):
			lr.overService = append(lr.overService, sv.ms)
		case !sv.sent.Before(from) && sv.sent.Before(to):
			lr.nominalService = append(lr.nominalService, sv.ms)
		}
	}
	var last int64
	for i := range lr.art.Requests {
		last = max(last, doneUS(&lr.art.Requests[i]))
	}
	lr.wallS = float64(last) / 1e6
	return lr, nil
}

// latencies returns the open-loop latencies (ms, from the scheduled send
// time) of the OK requests scheduled in phase, optionally restricted to
// one endpoint.
func (lr *loadResult) latencies(phase, endpoint string) []float64 {
	var xs []float64
	for i := range lr.art.Requests {
		l := &lr.art.Requests[i]
		if l.OK() && l.Phase == phase && (endpoint == "" || l.Endpoint == endpoint) {
			xs = append(xs, float64(l.LatUS)/1000)
		}
	}
	return xs
}

// completionRate is OK completions per second within [fromUS, toUS).
func (lr *loadResult) completionRate(fromUS, toUS int64) float64 {
	if toUS <= fromUS {
		return 0
	}
	n := 0
	for i := range lr.art.Requests {
		l := &lr.art.Requests[i]
		if d := doneUS(l); l.OK() && d >= fromUS && d < toUS {
			n++
		}
	}
	return float64(n) / (float64(toUS-fromUS) / 1e6)
}

// saturatedRate is the server's completion rate while saturated. From
// shortly after the overload step starts until its backlog drains, the
// generator's in-flight budget stays full, so completions over that span
// measure what the server sustains; the first and last tenth of them are
// trimmed so a straggler at either end does not stretch the span.
func (lr *loadResult) saturatedRate() float64 {
	from := lr.plan.PhaseStartUS(overStep) + 500_000
	var done []float64
	for i := range lr.art.Requests {
		l := &lr.art.Requests[i]
		if d := doneUS(l); l.OK() && d >= from {
			done = append(done, float64(d))
		}
	}
	sort.Float64s(done)
	lo, hi := len(done)/10, len(done)-1-len(done)/10
	if hi <= lo || done[hi] == done[lo] {
		return 0
	}
	return float64(hi-lo) / ((done[hi] - done[lo]) / 1e6)
}

// count checks the request outcomes: every request must succeed, and so
// must every run the server executed for them, on the fleet.
func (lr *loadResult) count(r *run) {
	for i := range lr.art.Requests {
		l := &lr.art.Requests[i]
		r.attempted++
		if !l.OK() {
			r.fail("request %d (%s, %s): status %d %s", l.I, l.Phase, l.Endpoint, l.Status, l.Err)
		}
	}
	for _, e := range lr.streamErrs {
		r.fail("a batch or campaign spec failed: %s", e)
	}
	for _, f := range faults(lr.before.m, lr.after.m) {
		r.fail("%s", f)
	}
}

// checkReports byte-compares a seeded sample of served reports (GET
// /v1/reports/{key}) with an in-process scenario.Run of the same spec,
// off the clock. The result store holds far more entries than a sub-run
// serves, so a served report that is not found counts as a failure.
func (in *instance) checkReports(c *config, r *run, lr *loadResult, sub int) error {
	schedule, err := lr.plan.Schedule()
	if err != nil {
		return err
	}
	ok := map[int]bool{}
	for i := range lr.art.Requests {
		ok[lr.art.Requests[i].I] = lr.art.Requests[i].OK()
	}
	seen := map[string]bool{}
	checked := 0
	for _, i := range checkOrder(c.seed, sub, len(schedule)) {
		if checked == checkSamples {
			break
		}
		if !ok[schedule[i].Index] {
			continue
		}
		spec, err := schedule[i].Specs[0].Normalize()
		if err != nil {
			return err
		}
		key, err := spec.Key()
		if err != nil {
			return err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		resp, err := control.Get(in.base + "/v1/reports/" + key)
		if err != nil {
			return err
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		r.attempted++
		checked++
		if resp.StatusCode != http.StatusOK {
			r.fail("GET /v1/reports/%s: status %d", key, resp.StatusCode)
			continue
		}
		out, err := scenario.Run(spec, scenario.Options{Parallelism: c.procs})
		if err != nil {
			return err
		}
		want, err := out.MarshalStable()
		if err != nil {
			return err
		}
		if !bytes.Equal(served, want) {
			r.fail("served report %s differs from an in-process scenario.Run", key)
		}
	}
	if checked < checkSamples {
		r.attempted++
		r.fail("only %d distinct served specs to sample, want %d", checked, checkSamples)
	}
	return nil
}

// serveRuns runs the workload's sub-plans, each on a freshly started
// instance: set-up, measured load, output checks, stop. Pooling several
// short runs on separate server processes, rather than one long run,
// averages out the process-to-process drift in per-request cost.
func serveRuns(c *config, r *run, tracer *obs.Tracer) ([]*loadResult, []float64, error) {
	plans, err := servePlans(c.seed, c.measure)
	if err != nil {
		return nil, nil, err
	}
	var runs []*loadResult
	var setups []float64
	for k, plan := range plans {
		in, setup, err := startInstance(c, tracer)
		if err != nil {
			return nil, nil, err
		}
		lr, err := in.measure(c, plan)
		if err == nil {
			lat := measure.QuantilesOf(lr.latencies(stepName(nominalStep), ""))
			svc := measure.QuantilesOf(lr.nominalService)
			fmt.Fprintf(os.Stderr, "perfbench: %s sub-run %d: nominal p50 %.2fms p99 %.2fms, service p50 %.2fms p99 %.2fms, overload service mean %.2fms, saturated %.1f/s\n",
				c.workload, k, lat.P50, lat.P99, svc.P50, svc.P99, mean(lr.overService), lr.saturatedRate())
			lr.count(r)
			err = in.checkReports(c, r, lr, k)
		}
		in.stop()
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, lr)
		setups = append(setups, setup)
	}
	return runs, setups, nil
}

// pooled concatenates f over every sub-run.
func pooled(runs []*loadResult, f func(*loadResult) []float64) []float64 {
	var xs []float64
	for _, lr := range runs {
		xs = append(xs, f(lr)...)
	}
	return xs
}

// each collects one value per sub-run.
func each(runs []*loadResult, f func(*loadResult) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, lr := range runs {
		xs[i] = f(lr)
	}
	return xs
}

// runServe is the serve-fleet workload: avgserve -fleet with one avgworker,
// driven by load.Run through the stepped open-loop plan. Latency percentiles are
// service times (send to response end) at the nominal step; the open-loop
// latencies from the scheduled send time, which add the wait for a free
// in-flight slot, are the per-layer load.step<k> figures.
func runServe(c *config, r *run) error {
	if !c.trace {
		runs, setups, err := serveRuns(c, r, nil)
		if err != nil {
			return err
		}
		svc := pooled(runs, func(lr *loadResult) []float64 { return lr.nominalService })
		if len(svc) < minNominalSamples {
			return fmt.Errorf("nominal step gave %d samples, want at least %d", len(svc), minNominalSamples)
		}
		r.set("setup_s", median(setups))
		r.set("wall_s", median(each(runs, func(lr *loadResult) float64 { return lr.wallS })))
		r.set("p50_ms", bandQuantile(svc, 0.50, 0.1))
		r.set("p99_ms", bandQuantile(svc, 0.99, 0.005))
		// Little's law: while the in-flight budget is full, as it is through
		// the overload step, throughput is the budget over the mean time a
		// request holds a slot.
		r.set("capacity_rps", float64(c.procs)*1000/mean(pooled(runs, func(lr *loadResult) []float64 { return lr.overService })))
		r.set("peak_rss_mb", median(each(runs, func(lr *loadResult) float64 { return lr.serverRSS + lr.workerRSS })))
		return nil
	}

	plain, _, err := serveRuns(c, r, nil)
	if err != nil {
		return err
	}
	var buf strings.Builder
	tr := obs.NewTracer(&buf, "perfbench", obs.A("workload", c.workload), obs.A("seed", c.seed))
	runs, _, err := serveRuns(c, r, tr)
	if err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	if err := writeTrace(c, []byte(buf.String())); err != nil {
		return err
	}
	serveLayers(c, r, runs)
	wall := func(lr *loadResult) float64 { return lr.wallS }
	r.set("obs.trace_overhead_s", median(each(runs, wall))-median(each(plain, wall)))
	return nil
}

// serveLayers records the serve workloads' per-layer metrics over the
// traced sub-runs: counters are summed, latencies pooled.
func serveLayers(c *config, r *run, runs []*loadResult) {
	nominal := stepName(nominalStep)
	sum := func(f func(*loadResult) float64) float64 {
		t := 0.0
		for _, v := range each(runs, f) {
			t += v
		}
		return t
	}
	for _, ep := range []string{load.EndpointRun, load.EndpointBatch, load.EndpointCampaign} {
		lat := pooled(runs, func(lr *loadResult) []float64 { return lr.latencies(nominal, ep) })
		r.set("avgserve."+ep+".p99_ms", measure.QuantilesOf(lat).P99)
	}
	execMS := 0.0
	if n := sum(func(lr *loadResult) float64 { return lr.after.runCnt - lr.before.runCnt }); n > 0 {
		execMS = sum(func(lr *loadResult) float64 { return lr.after.runSum - lr.before.runSum }) / n * 1000
	}
	r.set("avgserve.exec_ms_mean", execMS)
	uncached := pooled(runs, func(lr *loadResult) []float64 {
		var xs []float64
		for i := range lr.art.Requests {
			if l := &lr.art.Requests[i]; l.OK() && l.Phase == nominal && l.Endpoint == load.EndpointRun && !l.Cached {
				xs = append(xs, float64(l.LatUS)/1000)
			}
		}
		return xs
	})
	r.set("avgserve.wait_ms_mean", max(0, mean(uncached)-execMS))
	depth := pooled(runs, func(lr *loadResult) []float64 {
		var xs []float64
		for _, s := range lr.art.Samples {
			xs = append(xs, float64(s.QueueDepth))
		}
		return xs
	})
	dq := measure.QuantilesOf(depth)
	r.set("avgserve.queue_depth_p90", dq.P90)
	r.set("avgserve.queue_depth_max", dq.Max)
	r.set("avgserve.shed", sum(func(lr *loadResult) float64 {
		n := 0
		for i := range lr.art.Requests {
			if lr.art.Requests[i].Shed() {
				n++
			}
		}
		return float64(n)
	}))
	reqs := sum(func(lr *loadResult) float64 { return float64(len(lr.art.Requests)) })
	cpu := sum(func(lr *loadResult) float64 { return lr.after.serverCPU - lr.before.serverCPU })
	r.set("avgserve.cpu_s", cpu)
	r.set("avgserve.cpu_ms_per_req", cpu*1000/reqs)
	r.set("avgserve.rss_mb", median(each(runs, func(lr *loadResult) float64 { return lr.serverRSS })))

	hits := sum(func(lr *loadResult) float64 { return float64(lr.after.m.Store.Hits - lr.before.m.Store.Hits) })
	misses := sum(func(lr *loadResult) float64 { return float64(lr.after.m.Store.Misses - lr.before.m.Store.Misses) })
	if hits+misses > 0 {
		r.set("resultstore.hit_ratio", hits/(hits+misses))
	}
	r.set("resultstore.misses", misses)
	r.set("graphstore.builds", sum(func(lr *loadResult) float64 {
		return float64(lr.after.m.GraphStore.Builds - lr.before.m.GraphStore.Builds)
	}))
	r.set("graphstore.hits", sum(func(lr *loadResult) float64 {
		return float64(lr.after.m.GraphStore.Hits - lr.before.m.GraphStore.Hits)
	}))
	r.set("graphstore.bytes", median(each(runs, func(lr *loadResult) float64 { return float64(lr.after.m.GraphStore.Bytes) })))

	knee := 0.0
	for k := 0; k < loadSteps; k++ {
		name := stepName(k)
		lat := pooled(runs, func(lr *loadResult) []float64 { return lr.latencies(name, "") })
		maxDepth := 0
		rate := each(runs, func(lr *loadResult) float64 {
			from := lr.plan.PhaseStartUS(k)
			to := from + int64(lr.plan.Phases[k].DurationMS)*1000
			for _, s := range lr.art.Samples {
				if s.AtUS >= from && s.AtUS < to {
					maxDepth = max(maxDepth, s.QueueDepth)
				}
			}
			return lr.completionRate(from, to)
		})
		q := measure.QuantilesOf(lat)
		r.set(fmt.Sprintf("load.step%d.p50_ms", k+1), q.P50)
		r.set(fmt.Sprintf("load.step%d.p99_ms", k+1), q.P99)
		r.set(fmt.Sprintf("load.step%d.achieved_rps", k+1), mean(rate))
		if q.P99 <= p99LimitMS && maxDepth <= c.procs {
			knee = runs[0].plan.Phases[k].Rate
		}
	}
	r.set("load.knee_rps", knee)
	r.set("load.saturated_rps", median(each(runs, (*loadResult).saturatedRate)))
	lags := measure.QuantilesOf(pooled(runs, func(lr *loadResult) []float64 { return lr.nominalLags }))
	r.set("load.lag_p99_ms", lags.P99)
	r.set("load.lag_max_ms", lags.Max)
	r.set("load.samples", float64(len(pooled(runs, func(lr *loadResult) []float64 { return lr.nominalService }))))
	r.set("load.cpu_s", sum(func(lr *loadResult) float64 { return lr.after.self - lr.before.self }))

	fleetDelta := func(f func(*fleet.Stats) int64) float64 {
		return sum(func(lr *loadResult) float64 { return float64(f(lr.after.m.Fleet) - f(lr.before.m.Fleet)) })
	}
	completed := fleetDelta(func(s *fleet.Stats) int64 { return s.ChunksCompleted })
	duplicate := fleetDelta(func(s *fleet.Stats) int64 { return s.ChunksDuplicate })
	r.set("fleet.chunks_dispatched", fleetDelta(func(s *fleet.Stats) int64 { return s.ChunksDispatched }))
	r.set("fleet.chunks_completed", completed)
	r.set("fleet.chunks_retried", fleetDelta(func(s *fleet.Stats) int64 { return s.ChunksRetried }))
	r.set("fleet.chunks_stolen", fleetDelta(func(s *fleet.Stats) int64 { return s.ChunksStolen }))
	r.set("fleet.chunks_duplicate", duplicate)
	if completed+duplicate > 0 {
		r.set("fleet.useful_ratio", completed/(completed+duplicate))
	}
	r.set("fleet.pending_p90", measure.QuantilesOf(pooled(runs, func(lr *loadResult) []float64 { return lr.pending })).P90)
	r.set("avgworker.cpu_s", sum(func(lr *loadResult) float64 { return lr.after.workerCPU - lr.before.workerCPU }))
	r.set("avgworker.rss_mb", median(each(runs, func(lr *loadResult) float64 { return lr.workerRSS })))
}
