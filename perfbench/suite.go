package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"avgloc/internal/harness"
	"avgloc/internal/obs"
)

// pinnedSeed is the seed of the table hashes BENCH_results.json pins.
const pinnedSeed = 42

// suite is the paper-suite's prepared input.
type suite struct {
	ids    []string
	opt    harness.Options
	pinned map[string]string // experiment id -> table_fnv64; nil off the pinned seed
}

// suiteSetup resolves the experiments and, at the pinned seed, reads the
// expected table hashes: those of the newest quick-scale trajectory block
// recorded at that seed. BENCH_results.json is only ever read.
func suiteSetup(c *config) (*suite, error) {
	s := &suite{
		ids: harness.IDs(),
		opt: harness.Options{Scale: harness.Quick, Seed: c.seed, Parallelism: c.procs},
	}
	if c.seed != pinnedSeed {
		return s, nil
	}
	data, err := os.ReadFile(filepath.Join(c.root, "BENCH_results.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Trajectory []struct {
			Seed        uint64 `json:"seed"`
			Scale       string `json:"scale"`
			Experiments []struct {
				ID       string `json:"id"`
				TableFNV string `json:"table_fnv64"`
			} `json:"experiments"`
		} `json:"trajectory"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCH_results.json: %w", err)
	}
	for _, b := range doc.Trajectory {
		if b.Seed == pinnedSeed && b.Scale == "quick" {
			s.pinned = map[string]string{}
			for _, e := range b.Experiments {
				if e.TableFNV != "" {
					s.pinned[e.ID] = e.TableFNV
				}
			}
		}
	}
	if len(s.pinned) != len(s.ids) {
		return nil, fmt.Errorf("BENCH_results.json: the newest seed-%d quick block pins %d of %d table hashes", pinnedSeed, len(s.pinned), len(s.ids))
	}
	return s, nil
}

// expTiming is one harness.Run call.
type expTiming struct {
	id     string
	wall   time.Duration
	allocs uint64
}

// pass runs E1–E14 once, in order, checking every table hash against the
// pinned block (at the pinned seed) and against the first pass (at every
// seed: equal options must give bit-identical tables). With a tracer it
// emits one span per call and counts allocations.
func (s *suite) pass(r *run, first map[string]string, tr *obs.Tracer, parent *obs.Span) []expTiming {
	out := make([]expTiming, 0, len(s.ids))
	var before, after runtime.MemStats
	for _, id := range s.ids {
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		sp := tr.Span(parent, "harness.run", obs.A("exp", id))
		start := time.Now()
		tab, err := harness.Run(id, s.opt)
		wall := time.Since(start)
		r.attempted++
		if err != nil {
			sp.End(obs.A("error", err.Error()))
			r.fail("%s: %v", id, err)
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(tab.String()))
		sum := fmt.Sprintf("%016x", h.Sum64())
		sp.End(obs.A("rows", len(tab.Rows)), obs.A("table_fnv64", sum))
		t := expTiming{id: id, wall: wall}
		if tr != nil {
			runtime.ReadMemStats(&after)
			t.allocs = after.Mallocs - before.Mallocs
		}
		out = append(out, t)
		if want, ok := s.pinned[id]; ok && want != sum {
			r.fail("%s: table_fnv64 %s, pinned %s", id, sum, want)
		}
		if want, ok := first[id]; !ok {
			first[id] = sum
		} else if want != sum {
			r.fail("%s: table_fnv64 %s differs from the first pass's %s", id, sum, want)
		}
	}
	return out
}

// passes repeats the suite until the budget is spent (at least three
// passes) and returns the pass wall times and every call's timing; each
// pass's peak resident set is appended to rss. With probes, three set-up
// probes follow each pass.
func (s *suite) passes(r *run, budget time.Duration, first map[string]string, tr *obs.Tracer, rss *[]float64, probes *setupProbes) ([]float64, [][]expTiming, error) {
	var walls []float64
	var calls [][]expTiming
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < budget {
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		sp := tr.Span(nil, "suite.pass", obs.A("pass", len(walls)))
		t0 := time.Now()
		calls = append(calls, s.pass(r, first, tr, sp))
		walls = append(walls, time.Since(t0).Seconds())
		sp.End()
		*rss = append(*rss, peakRSSMB())
		if probes != nil {
			if err := probes.take(3); err != nil {
				return nil, nil, err
			}
		}
	}
	return walls, calls, nil
}

// runSuite is the paper-suite workload: harness.Run for E1–E14 at quick
// scale, as one caller's batch, repeated for the measuring time.
func runSuite(c *config, r *run) error {
	s, err := suiteSetup(c)
	if err != nil {
		return err
	}
	first := map[string]string{}
	if !c.trace {
		probes := &setupProbes{c: c}
		var rss []float64
		walls, calls, err := s.passes(r, c.measure, first, nil, &rss, probes)
		if err != nil {
			return err
		}
		lat := map[string][]float64{}
		for _, p := range calls {
			for _, t := range p {
				lat[t.id] = append(lat[t.id], float64(t.wall.Microseconds())/1000)
			}
		}
		p50, p99 := opLatency(lat)
		r.set("setup_s", median(probes.xs))
		r.set("wall_s", median(walls))
		r.set("p50_ms", p50)
		r.set("p99_ms", p99)
		r.set("capacity_rps", float64(len(s.ids))/median(walls))
		r.set("peak_rss_mb", median(rss))
		return nil
	}

	// Traced: untraced passes for the baseline, then traced passes whose
	// per-call timings give the per-experiment split.
	var rss []float64
	plain, _, err := s.passes(r, c.measure/2, first, nil, &rss, nil)
	if err != nil {
		return err
	}
	var buf strings.Builder
	tr := obs.NewTracer(&buf, "perfbench", obs.A("workload", c.workload), obs.A("seed", c.seed))
	traced, calls, err := s.passes(r, c.measure/2, first, tr, &rss, nil)
	if err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	if err := writeTrace(c, []byte(buf.String())); err != nil {
		return err
	}
	for _, id := range s.ids {
		var walls, allocs []float64
		for _, p := range calls {
			for _, t := range p {
				if t.id == id {
					walls = append(walls, t.wall.Seconds())
					allocs = append(allocs, float64(t.allocs))
				}
			}
		}
		r.set("harness."+id+".wall_s", median(walls))
		r.set("harness."+id+".allocs", median(allocs))
	}
	r.set("obs.trace_overhead_s", median(traced)-median(plain))
	return nil
}
