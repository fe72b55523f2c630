package main

import (
	"fmt"
	"math"
	"sort"

	"avgloc/internal/measure"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. METRICS.md
// says what each means per workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// loadSteps is the number of stepped open-loop rates of the serve plan.
const loadSteps = 4

// perLayer is what a traced run reports, on every workload: a layer the
// workload does not exercise reads 0.
func perLayer() []spec {
	var out []spec
	for k := 1; k <= 14; k++ {
		out = append(out,
			spec{fmt.Sprintf("harness.E%d.wall_s", k), "s"},
			spec{fmt.Sprintf("harness.E%d.allocs", k), "count"})
	}
	out = append(out,
		spec{"graphstore.build_s", "s"},
		spec{"graphstore.builds", "count"},
		spec{"graphstore.hits", "count"},
		spec{"graphstore.bytes", "B"},
		spec{"core.trials_s", "s"},
		spec{"runtime.node_rounds", "count"},
		spec{"runtime.messages", "count"},
		spec{"runtime.ns_per_node_round", "ns"},
		spec{"measure.merge_s", "s"},
		spec{"campaign.evaluate_s", "s"},
		spec{"scenario.encode_s", "s"},
		spec{"scenario.encode_bytes", "B"},
		spec{"resultstore.hit_ratio", "ratio"},
		spec{"resultstore.misses", "count"},
		spec{"avgserve.run.p99_ms", "ms"},
		spec{"avgserve.batch.p99_ms", "ms"},
		spec{"avgserve.campaign.p99_ms", "ms"},
		spec{"avgserve.exec_ms_mean", "ms"},
		spec{"avgserve.wait_ms_mean", "ms"},
		spec{"avgserve.queue_depth_p90", "count"},
		spec{"avgserve.queue_depth_max", "count"},
		spec{"avgserve.shed", "count"},
		spec{"avgserve.cpu_ms_per_req", "ms"},
		spec{"avgserve.cpu_s", "s"},
		spec{"avgserve.rss_mb", "MB"},
	)
	for k := 1; k <= loadSteps; k++ {
		out = append(out,
			spec{fmt.Sprintf("load.step%d.p50_ms", k), "ms"},
			spec{fmt.Sprintf("load.step%d.p99_ms", k), "ms"},
			spec{fmt.Sprintf("load.step%d.achieved_rps", k), "1/s"})
	}
	out = append(out,
		spec{"load.knee_rps", "1/s"},
		spec{"load.saturated_rps", "1/s"},
		spec{"load.lag_p99_ms", "ms"},
		spec{"load.lag_max_ms", "ms"},
		spec{"load.samples", "count"},
		spec{"load.cpu_s", "s"},
		spec{"fleet.chunks_dispatched", "count"},
		spec{"fleet.chunks_completed", "count"},
		spec{"fleet.chunks_retried", "count"},
		spec{"fleet.chunks_stolen", "count"},
		spec{"fleet.chunks_duplicate", "count"},
		spec{"fleet.useful_ratio", "ratio"},
		spec{"fleet.pending_p90", "count"},
		spec{"avgworker.cpu_s", "s"},
		spec{"avgworker.rss_mb", "MB"},
		spec{"obs.trace_overhead_s", "s"},
	)
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// bandQuantile is a smoothed q-quantile: the mean of the order statistics
// between the (q-w)- and (q+w)-quantiles. A tail quantile taken from one
// order statistic jumps with every sample that lands near it; averaging
// the band keeps its meaning and damps that noise.
func bandQuantile(xs []float64, q, w float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := max(0, int(math.Ceil((q-w)*float64(len(s))))-1)
	hi := min(len(s)-1, int(math.Ceil((q+w)*float64(len(s))))-1)
	return mean(s[lo : hi+1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// opLatency summarises repeated operations of a fixed set (experiments,
// campaign scenarios): each operation's median latency over the
// repetitions, then the median and nearest-rank p99 across operations.
// Taking per-operation medians first keeps the summary continuous when
// two operations trade places.
func opLatency(byOp map[string][]float64) (p50, p99 float64) {
	var meds []float64
	for _, xs := range byOp {
		meds = append(meds, median(xs))
	}
	return median(meds), measure.QuantilesOf(meds).P99
}
