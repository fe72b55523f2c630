package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"avgloc/internal/campaign"
	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// campaignFile is the campaign the paper-campaign workload runs.
const campaignFile = "campaigns/paper.json"

// campaignSetup parses the paper campaign and overrides every spec's seed
// with the workload seed.
func campaignSetup(c *config) (*campaign.Campaign, error) {
	data, err := os.ReadFile(filepath.Join(c.root, campaignFile))
	if err != nil {
		return nil, err
	}
	camp, err := campaign.Parse(data)
	if err != nil {
		return nil, err
	}
	for i := range camp.Scenarios {
		camp.Scenarios[i].Spec.Seed = c.seed
	}
	return camp, camp.Validate()
}

// campaignRun is one timed campaign.Run on fresh stores.
type campaignRun struct {
	wall float64 // seconds
	// exec is each executed scenario's own run time, ms, by cache key
	// (scenarios with equal keys execute once).
	exec   map[string]float64
	report []byte  // MarshalStable bytes
	rss    float64 // peak resident set of this run, MB
}

// runOnce executes the campaign on fresh result and graph stores, so every
// run pays the cold builds a first-time user pays.
func runOnce(c *config, camp *campaign.Campaign, ctx context.Context) (*campaignRun, error) {
	rs, err := resultstore.New(256, "")
	if err != nil {
		return nil, err
	}
	gs, err := graphstore.New(graphstore.DefaultMaxBytes, "")
	if err != nil {
		return nil, err
	}
	out := &campaignRun{exec: map[string]float64{}}
	var mu sync.Mutex
	// execute is campaign.Run's own local executor, timed.
	execute := func(ctx context.Context, spec *scenario.Spec, parallelism int) (*scenario.Outcome, error) {
		t0 := time.Now()
		o, err := scenario.Run(spec, scenario.Options{Parallelism: parallelism, Ctx: ctx, Graphs: gs})
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if key, kerr := spec.Key(); kerr == nil {
			mu.Lock()
			out.exec[key] = ms
			mu.Unlock()
		}
		return o, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := campaign.Run(camp, campaign.Options{
		Parallelism: c.procs, Store: rs, Ctx: ctx, Execute: execute,
	})
	out.wall = time.Since(start).Seconds()
	out.rss = peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.report, err = rep.MarshalStable()
	return out, err
}

// checkCampaign checks one run's report: byte-identical to the first run
// (equal inputs, equal bytes), every scenario error-free, and at the
// pinned seed every hypothesis CONFIRMED.
func checkCampaign(c *config, r *run, camp *campaign.Campaign, got, first []byte) {
	r.attempted++
	if first != nil && !bytes.Equal(got, first) {
		r.fail("campaign report bytes differ between runs of one seed")
		return
	}
	var rep campaign.Report
	if err := json.Unmarshal(got, &rep); err != nil {
		r.fail("campaign report: %v", err)
		return
	}
	claims := 0
	for i, s := range rep.Scenarios {
		if s.Error != "" {
			r.fail("scenario %s: %s", s.Name, s.Error)
		}
		if camp.Scenarios[i].Hypothesis != nil {
			claims++
		}
	}
	if c.seed == pinnedSeed && rep.Confirmed != claims {
		r.fail("seed %d: %d/%d claims CONFIRMED", c.seed, rep.Confirmed, claims)
	}
}

// runCampaign is the paper-campaign workload: campaign.Run on
// campaigns/paper.json with every seed set to the workload seed.
func runCampaign(c *config, r *run) error {
	camp, err := campaignSetup(c)
	if err != nil {
		return err
	}
	if c.trace {
		return traceCampaign(c, r, camp)
	}
	probes := &setupProbes{c: c}
	var walls, rss []float64
	exec := map[string][]float64{}
	var first []byte
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < c.measure {
		cr, err := runOnce(c, camp, nil)
		if err != nil {
			return err
		}
		checkCampaign(c, r, camp, cr.report, first)
		if first == nil {
			first = cr.report
		}
		walls = append(walls, cr.wall)
		rss = append(rss, cr.rss)
		for key, ms := range cr.exec {
			exec[key] = append(exec[key], ms)
		}
		if err := probes.take(5); err != nil {
			return err
		}
	}
	p50, p99 := opLatency(exec)
	r.set("setup_s", median(probes.xs))
	r.set("wall_s", median(walls))
	r.set("p50_ms", p50)
	r.set("p99_ms", p99)
	r.set("capacity_rps", float64(len(camp.Scenarios))/median(walls))
	r.set("peak_rss_mb", median(rss))
	return nil
}

// traceCampaign is the traced paper-campaign run. It alternates untraced
// and traced campaign.Run calls for the overhead figure, then decomposes
// the campaign from outside through the layers' public functions: each
// row's chunk twice on one fresh graph store (cold, then warm), the merge,
// the stable encoding and the evaluation. The decomposition's report must
// equal campaign.Run's byte for byte.
func traceCampaign(c *config, r *run, camp *campaign.Campaign) error {
	var buf strings.Builder
	tr := obs.NewTracer(&buf, "perfbench", obs.A("workload", c.workload), obs.A("seed", c.seed))
	var plain, traced []float64
	var first []byte
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < c.measure/2 {
		for _, on := range []bool{false, true} {
			var ctx context.Context
			var sp *obs.Span
			if on {
				sp = tr.Span(nil, "campaign.run")
				ctx = obs.With(context.Background(), sp)
			}
			cr, err := runOnce(c, camp, ctx)
			sp.End()
			if err != nil {
				return err
			}
			checkCampaign(c, r, camp, cr.report, first)
			if first == nil {
				first = cr.report
			}
			if on {
				traced = append(traced, cr.wall)
			} else {
				plain = append(plain, cr.wall)
			}
		}
	}
	r.set("obs.trace_overhead_s", median(traced)-median(plain))

	root := tr.Span(nil, "campaign.decompose")
	ctx := obs.With(context.Background(), root)
	got, err := decompose(c, r, camp, tr, root, ctx)
	root.End()
	if err != nil {
		return err
	}
	r.attempted++
	if !bytes.Equal(got, first) {
		r.fail("decomposed campaign report differs from campaign.Run's")
	}
	if err := tr.Close(); err != nil {
		return err
	}
	build, err := coldBuildSeconds(buf.String())
	if err != nil {
		return err
	}
	r.set("graphstore.build_s", build)
	return writeTrace(c, []byte(buf.String()))
}

// coldBuildSeconds sums the graph.build spans graphstore.Store.Get emits
// under the decomposition's cold chunk passes. Cold minus warm chunk time
// would give the same figure only in theory: the builds are a small part
// of a row's time, and run-to-run noise in the trials swamps them.
func coldBuildSeconds(trace string) (float64, error) {
	cold := map[uint64]bool{}
	var builds []obs.Line
	for _, raw := range strings.Split(strings.TrimSpace(trace), "\n") {
		var l obs.Line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			return 0, fmt.Errorf("trace line: %w", err)
		}
		switch {
		case l.Type == "span" && l.Name == "scenario.chunk" && l.Attrs["store"] == "cold":
			cold[l.ID] = true
		case l.Type == "span" && l.Name == "graph.build":
			builds = append(builds, l)
		}
	}
	var us int64
	for _, l := range builds {
		if cold[l.Parent] {
			us += l.DurUS
		}
	}
	return float64(us) / 1e6, nil
}

// decompose rebuilds the campaign report layer by layer and records the
// per-layer split. Every row runs on a fresh graph store, first cold (the
// one build) and then warm (a hit): trial time is the warm pass.
func decompose(c *config, r *run, camp *campaign.Campaign, tr *obs.Tracer, root *obs.Span, ctx context.Context) ([]byte, error) {
	var trialsS, mergeS, encodeS float64
	var builds, hits, graphBytes, nodeRounds, messages, encodeBytes int64
	outcomes := map[string]*scenario.Outcome{}
	runs := make([]campaign.ScenarioRun, len(camp.Scenarios))
	for i, item := range camp.Scenarios {
		spec, err := item.Spec.Normalize()
		if err != nil {
			return nil, err
		}
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		runs[i] = campaign.ScenarioRun{Index: i, Name: item.Name, Key: key}
		if out, ok := outcomes[key]; ok {
			runs[i].Outcome = out // campaign.Run executes equal keys once
			continue
		}
		var chunks []*scenario.Chunk
		for row := 0; row < spec.Rows(); row++ {
			gs, err := graphstore.New(graphstore.DefaultMaxBytes, "")
			if err != nil {
				return nil, err
			}
			var pass [2]*scenario.Chunk
			var wall [2]float64
			for k, phase := range []string{"cold", "warm"} {
				sp := tr.Span(root, "scenario.chunk", obs.A("scenario", item.Name), obs.A("row", row), obs.A("store", phase))
				t0 := time.Now()
				pass[k], err = scenario.RunChunkOpts(spec, row, 0, spec.Trials,
					scenario.ChunkOptions{Parallelism: c.procs, Graphs: gs, Ctx: obs.With(ctx, sp)})
				wall[k] = time.Since(t0).Seconds()
				sp.End()
				if err != nil {
					return nil, err
				}
				if st := gs.Stats(); st.Builds != 1 {
					r.fail("%s row %d: %d graph builds after the %s pass, want 1", item.Name, row, st.Builds, phase)
				}
			}
			r.attempted++
			a, _ := json.Marshal(pass[0])
			b, _ := json.Marshal(pass[1])
			if !bytes.Equal(a, b) {
				r.fail("%s row %d: warm chunk differs from cold chunk", item.Name, row)
			}
			st := gs.Stats()
			builds += st.Builds
			hits += st.Hits
			graphBytes += st.Bytes
			trialsS += wall[1]
			for _, t := range pass[1].Trials {
				messages += t.Messages
				for _, tv := range t.Node {
					nodeRounds += int64(tv)
				}
			}
			chunks = append(chunks, pass[1])
		}
		sp := tr.Span(root, "scenario.merge", obs.A("scenario", item.Name))
		t0 := time.Now()
		out, err := scenario.MergeChunks(spec, chunks)
		mergeS += time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tr.Span(root, "scenario.encode", obs.A("scenario", item.Name))
		t0 = time.Now()
		data, err := out.MarshalStable()
		encodeS += time.Since(t0).Seconds()
		sp.End(obs.A("bytes", len(data)))
		if err != nil {
			return nil, err
		}
		encodeBytes += int64(len(data))
		outcomes[key] = out
		runs[i].Outcome = out
	}
	sp := tr.Span(root, "campaign.evaluate")
	t0 := time.Now()
	rep, err := campaign.Evaluate(camp, runs)
	evalS := time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	r.set("graphstore.builds", float64(builds))
	r.set("graphstore.hits", float64(hits))
	r.set("graphstore.bytes", float64(graphBytes))
	r.set("core.trials_s", trialsS)
	r.set("runtime.node_rounds", float64(nodeRounds))
	r.set("runtime.messages", float64(messages))
	if nodeRounds > 0 {
		r.set("runtime.ns_per_node_round", trialsS*1e9/float64(nodeRounds))
	}
	r.set("measure.merge_s", mergeS)
	r.set("scenario.encode_s", encodeS)
	r.set("scenario.encode_bytes", float64(encodeBytes))
	r.set("campaign.evaluate_s", evalS)
	return rep.MarshalStable()
}
