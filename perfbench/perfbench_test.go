package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"avgloc/internal/load"
	"avgloc/internal/obs"
)

// schedules expands every sub-plan of a serve run.
func schedules(t *testing.T, seed uint64) [][]load.Request {
	t.Helper()
	plans, err := servePlans(seed, 35*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]load.Request
	for _, p := range plans {
		s, err := p.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func TestSameSeedReplaysInputs(t *testing.T) {
	a, b := schedules(t, 42), schedules(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 42 gave two different schedules")
	}
	for k := 0; k < serveInstances; k++ {
		if !reflect.DeepEqual(checkOrder(42, k, 500), checkOrder(42, k, 500)) {
			t.Fatalf("sub-run %d: check sample order differs between replays", k)
		}
	}
}

func TestOtherSeedChangesInputs(t *testing.T) {
	a, b := schedules(t, 42), schedules(t, 43)
	for k := range a {
		if reflect.DeepEqual(a[k], b[k]) {
			t.Fatalf("sub-run %d: seeds 42 and 43 gave the same schedule", k)
		}
		if reflect.DeepEqual(a[k][0].Specs, b[k][0].Specs) {
			t.Fatalf("sub-run %d: seeds 42 and 43 issued the same first specs", k)
		}
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("sub-runs 0 and 1 share a schedule")
	}
	if reflect.DeepEqual(checkOrder(42, 0, 500), checkOrder(43, 0, 500)) {
		t.Fatal("seeds 42 and 43 sample the same reports")
	}
}

// TestPlanShape pins the load shape the metrics rely on: a margin over the
// nominal-sample floor, an overload step well above the nominal one, and a
// warm-up that does not depend on the seed.
func TestPlanShape(t *testing.T) {
	nominal := 0
	for _, s := range schedules(t, 42) {
		for _, r := range s {
			if r.Phase == nominalStep {
				nominal++
			}
		}
	}
	if nominal < minNominalSamples*5/4 {
		t.Fatalf("nominal step schedules %d requests, want a margin over %d", nominal, minNominalSamples)
	}
	if stepRates[overStep] <= 2*stepRates[nominalStep] {
		t.Fatalf("overload rate %v does not exceed the nominal %v enough", stepRates[overStep], stepRates[nominalStep])
	}
	w1, _ := warmPlan()
	w2, _ := warmPlan()
	s1, _ := w1.Schedule()
	s2, _ := w2.Schedule()
	if !reflect.DeepEqual(s1, s2) || len(s1) == 0 {
		t.Fatal("warm-up schedule is empty or not fixed")
	}
}

// TestServerFaults covers the failures a 200 response can hide: an error
// line in a batch or campaign stream, a failed run, a run that fell back
// from the fleet to local execution.
func TestServerFaults(t *testing.T) {
	stream := bytes.NewBufferString(`{"index":0,"status":"done","key":"a","cached":false}
{"index":1,"status":"error","error":"boom"}
{"type":"verdict","report":{"confirmed":1}}
`)
	if got := streamErrors(stream); !reflect.DeepEqual(got, []string{"boom"}) {
		t.Fatalf("stream errors = %q, want [boom]", got)
	}
	if got := streamErrors(nil); got != nil {
		t.Fatalf("a /v1/run body gave stream errors %q", got)
	}
	before := serverMetrics{RunsCompleted: 5, RunsFleet: 5, RunsFailed: 1}
	if f := faults(before, serverMetrics{RunsCompleted: 9, RunsFleet: 9, RunsFailed: 1}); len(f) != 0 {
		t.Fatalf("healthy run reported %q", f)
	}
	if f := faults(before, serverMetrics{RunsCompleted: 9, RunsFleet: 9, RunsFailed: 2}); len(f) != 1 {
		t.Fatalf("a failed run reported %q", f)
	}
	if f := faults(before, serverMetrics{RunsCompleted: 9, RunsFleet: 8, RunsFailed: 1}); len(f) != 1 {
		t.Fatalf("a local fallback reported %q", f)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the program's metric names and
// units in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestRenderRequiresEveryEndToEndMetric(t *testing.T) {
	r := newRun()
	r.attempted = 1
	for _, m := range endToEnd[1:] {
		r.set(m.name, 1)
	}
	if _, err := render(&config{workload: "x"}, r); err == nil {
		t.Fatal("a run missing setup_s rendered")
	}
	r.set(endToEnd[0].name, 1)
	res, err := render(&config{workload: "x"}, r)
	if err != nil || !res.Correct {
		t.Fatalf("complete run: %v, %+v", err, res)
	}
	r.fail("mismatch")
	if res, _ := render(&config{workload: "x"}, r); res.Correct || res.Failed != 1 {
		t.Fatalf("failed check rendered as %+v", res)
	}
	r.set("not.a.metric", 1)
	if _, err := render(&config{workload: "x"}, r); err == nil {
		t.Fatal("an unknown metric rendered")
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := bandQuantile(xs, 0.99, 0.005); got != 990 {
		t.Fatalf("band p99 = %v, want 990 (mean of ranks 985..995)", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	p50, p99 := opLatency(map[string][]float64{"a": {1, 2, 3}, "b": {10, 20, 30}, "c": {5}})
	if p50 != 5 || p99 != 20 {
		t.Fatalf("opLatency = %v, %v; want 5, 20", p50, p99)
	}
}

// TestColdBuildSeconds counts only the graph builds under cold chunk
// passes: builds elsewhere in the trace (the timed campaign.Run calls)
// are not the decomposition's.
func TestColdBuildSeconds(t *testing.T) {
	var buf strings.Builder
	tr := obs.NewTracer(&buf, "test")
	build := func(parent *obs.Span, d time.Duration) {
		b := parent.Span("graph.build")
		time.Sleep(d)
		b.End()
		parent.End()
	}
	build(tr.Span(nil, "scenario.chunk", obs.A("store", "cold")), time.Millisecond)
	build(tr.Span(nil, "scenario.chunk", obs.A("store", "warm")), 50*time.Millisecond)
	build(tr.Span(nil, "campaign.run"), 50*time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := coldBuildSeconds(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.001 || got >= 0.05 {
		t.Fatalf("cold build time %vs, want only the 1ms cold build", got)
	}
}
