// Command avgbench runs the reproduction experiments E1–E14 and prints
// their tables (DESIGN.md §2, EXPERIMENTS.md).
//
// Usage:
//
//	avgbench                         # every experiment at quick scale
//	avgbench -only E1,E3             # selected experiments (unknown ids list the catalogue)
//	avgbench -full -seed 7           # full-scale sweeps
//	avgbench -parallel 1             # force sequential execution
//	avgbench -json BENCH_results.json
//
// Tables are bit-identical at every -parallel level: all randomness is
// derived from the master seed, never from scheduling.
//
// With -json, per-experiment wall-clock, allocation and table statistics
// are appended to the given file as one block of an immutable trajectory
// (schema 2; legacy baseline/current files migrate on first append). Each
// PR appends one block, so the file is the project's perf history.
//
// With -check the experiments are not run: the newest trajectory block is
// gated against its predecessor and the command fails if any experiment's
// allocations (deterministic, tight tolerance) or wall clock (noisy,
// loose tolerance; 0 disables) regressed beyond -max-alloc-ratio /
// -max-wall-ratio.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"avgloc/internal/graphstore"
	"avgloc/internal/harness"
	"avgloc/internal/registry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "avgbench:", err)
		os.Exit(1)
	}
}

// expStats is the machine-readable record of one experiment run.
type expStats struct {
	ID       string `json:"id"`
	WallNs   int64  `json:"wall_ns"`
	Allocs   uint64 `json:"allocs"`
	Bytes    uint64 `json:"bytes"`
	Rows     int    `json:"rows"`
	TableFNV string `json:"table_fnv64"` // hash of the rendered table, for bit-identity checks
}

// graphTiming records the graph store's two supply paths for a reference
// graph: a cold build (generator + CSR persist) and a warm disk load. It
// rides in the trajectory block so -check gates serialization perf the
// same way it gates the experiments.
type graphTiming struct {
	Family      string `json:"family"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	BuildNs     int64  `json:"build_ns"`
	BuildAllocs uint64 `json:"build_allocs"`
	LoadNs      int64  `json:"load_ns"`
	LoadAllocs  uint64 `json:"load_allocs"`
}

// benchBlock is one measured sweep over the selected experiments.
type benchBlock struct {
	Label       string       `json:"label"`
	GoVersion   string       `json:"go_version,omitempty"`
	GoMaxProcs  int          `json:"gomaxprocs,omitempty"`
	Parallelism int          `json:"parallelism,omitempty"`
	Seed        uint64       `json:"seed,omitempty"`
	Scale       string       `json:"scale,omitempty"`
	TotalWallNs int64        `json:"total_wall_ns"`
	Graph       *graphTiming `json:"graphstore,omitempty"`
	Experiments []expStats   `json:"experiments"`
}

func run() error {
	onlyFlag := flag.String("only", "", "comma-separated experiment ids to run, e.g. E1,E3 (default: all)")
	full := flag.Bool("full", false, "full-scale sweeps (minutes instead of seconds)")
	seed := flag.Uint64("seed", 42, "master seed")
	parallel := flag.Int("parallel", 0, "worker budget per experiment (0 = GOMAXPROCS, 1 = sequential)")
	jsonPath := flag.String("json", "", "append per-experiment wall-clock/alloc stats to this trajectory file")
	label := flag.String("label", "", "label for the appended trajectory block (default \"avgbench <scale>\")")
	check := flag.Bool("check", false, "perf gate: compare the newest -json block against its predecessor instead of running")
	maxWallRatio := flag.Float64("max-wall-ratio", 0, "-check: fail if wall clock grew beyond this ratio (0 = ignore wall, it is machine-noisy)")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 1.25, "-check: fail if allocations grew beyond this ratio (0 = ignore)")
	flag.Parse()

	if *check {
		if *jsonPath == "" {
			return fmt.Errorf("-check needs -json <trajectory file>")
		}
		return runCheck(*jsonPath, *maxWallRatio, *maxAllocRatio)
	}

	opt := harness.Options{Scale: harness.Quick, Seed: *seed, Parallelism: *parallel}
	if *full {
		opt.Scale = harness.Full
	}
	// Resolving the filter up front fails fast on typos — with the
	// catalogue in the error — instead of erroring mid-sweep.
	experiments, err := harness.Select(*onlyFlag)
	if err != nil {
		return err
	}
	var selected []string
	for _, e := range experiments {
		selected = append(selected, e.ID)
	}

	scaleName := "quick"
	if *full {
		scaleName = "full"
	}
	blockLabel := *label
	if blockLabel == "" {
		blockLabel = "avgbench " + scaleName
	}
	block := &benchBlock{
		Label:       blockLabel,
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: *parallel,
		Seed:        *seed,
		Scale:       scaleName,
	}
	var before, after runtime.MemStats
	for _, id := range selected {
		runtime.ReadMemStats(&before)
		start := time.Now()
		tab, err := harness.Run(id, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		rendered := tab.String()
		fmt.Println(rendered)
		h := fnv.New64a()
		h.Write([]byte(rendered))
		block.Experiments = append(block.Experiments, expStats{
			ID:       id,
			WallNs:   wall.Nanoseconds(),
			Allocs:   after.Mallocs - before.Mallocs,
			Bytes:    after.TotalAlloc - before.TotalAlloc,
			Rows:     len(tab.Rows),
			TableFNV: fmt.Sprintf("%016x", h.Sum64()),
		})
		block.TotalWallNs += wall.Nanoseconds()
	}

	if *jsonPath != "" {
		gt, err := measureGraphStore(*seed)
		if err != nil {
			return err
		}
		block.Graph = gt
		fmt.Fprintf(os.Stderr, "avgbench: graphstore %s n=%d m=%d: build %.2fms (%d allocs), load %.2fms (%d allocs)\n",
			gt.Family, gt.Nodes, gt.Edges, float64(gt.BuildNs)/1e6, gt.BuildAllocs, float64(gt.LoadNs)/1e6, gt.LoadAllocs)
		return writeJSON(*jsonPath, block)
	}
	return nil
}

// measureGraphStore times one reference graph through the store's two
// supply paths — a cold Get (generator run + artifact persist) and a warm
// Get over a fresh store bound to the same directory (pure CSR load) — and
// sanity-checks the store counters so the numbers measure what they claim.
func measureGraphStore(seed uint64) (*graphTiming, error) {
	dir, err := os.MkdirTemp("", "avgbench-graphs-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	const family = "regular"
	params := registry.Values{"n": 4096, "d": 6}
	var before, after runtime.MemStats

	cold, err := graphstore.New(0, dir)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&before)
	start := time.Now()
	g, err := cold.Get(context.Background(), family, params, seed, 0)
	if err != nil {
		return nil, err
	}
	buildWall := time.Since(start)
	runtime.ReadMemStats(&after)
	buildAllocs := after.Mallocs - before.Mallocs
	if s := cold.Stats(); s.Builds != 1 {
		return nil, fmt.Errorf("graph timing: cold store built %d graphs, want 1", s.Builds)
	}

	warm, err := graphstore.New(0, dir)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&before)
	start = time.Now()
	if _, err := warm.Get(context.Background(), family, params, seed, 0); err != nil {
		return nil, err
	}
	loadWall := time.Since(start)
	runtime.ReadMemStats(&after)
	if s := warm.Stats(); s.Builds != 0 || s.Loads != 1 {
		return nil, fmt.Errorf("graph timing: warm store builds=%d loads=%d, want 0/1", s.Builds, s.Loads)
	}
	return &graphTiming{
		Family:      family,
		Nodes:       g.N(),
		Edges:       g.M(),
		BuildNs:     buildWall.Nanoseconds(),
		BuildAllocs: buildAllocs,
		LoadNs:      loadWall.Nanoseconds(),
		LoadAllocs:  after.Mallocs - before.Mallocs,
	}, nil
}
