package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchFile is the BENCH_results.json schema (schema 2): an append-only
// trajectory of measured blocks, one per PR / regeneration, oldest first.
// The perf gate (-check) compares the newest block against its
// predecessor, so the file doubles as the regression baseline — no
// separate "promote to baseline" step exists anymore.
type benchFile struct {
	Schema     int          `json:"schema"`
	Suite      string       `json:"suite"`
	Trajectory []benchBlock `json:"trajectory"`
}

// loadBench parses a schema-2 file; any other schema is an error.
func loadBench(data []byte) (*benchFile, error) {
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Schema != 2 {
		return nil, fmt.Errorf("unknown bench schema %d", probe.Schema)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// writeJSON appends block to the trajectory in path. A missing file starts
// a fresh trajectory; a file that cannot be read or parsed is an error and
// stays untouched, since overwriting it would erase the perf history.
func writeJSON(path string, block *benchBlock) error {
	out := &benchFile{
		Schema: 2,
		Suite:  "avgbench E1-E14; append a block with: go run ./cmd/avgbench -json " + path,
	}
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		old, err := loadBench(prev)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out.Trajectory = old.Trajectory
	case !os.IsNotExist(err):
		return err
	}
	out.Trajectory = append(out.Trajectory, *block)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "avgbench: appended block %d to %s (total %.2fs)\n",
		len(out.Trajectory), path, float64(block.TotalWallNs)/1e9)
	return nil
}

// checkTrajectory compares the newest block against its predecessor and
// returns one violation line per experiment that regressed beyond
// tolerance. maxAllocRatio gates allocation counts (deterministic, so the
// tolerance can be tight); maxWallRatio gates wall clock (noisy across
// machines — pass 0 to skip it). Experiments present in only one block
// are ignored: the gate judges regressions, not catalogue changes.
func checkTrajectory(f *benchFile, maxWallRatio, maxAllocRatio float64) []string {
	if len(f.Trajectory) < 2 {
		return nil
	}
	prev := f.Trajectory[len(f.Trajectory)-2]
	cur := f.Trajectory[len(f.Trajectory)-1]
	prevBy := make(map[string]expStats, len(prev.Experiments))
	for _, e := range prev.Experiments {
		prevBy[e.ID] = e
	}
	var bad []string
	for _, e := range cur.Experiments {
		p, ok := prevBy[e.ID]
		if !ok {
			continue
		}
		if maxAllocRatio > 0 && p.Allocs > 0 {
			if ratio := float64(e.Allocs) / float64(p.Allocs); ratio > maxAllocRatio {
				bad = append(bad, fmt.Sprintf("%s: allocs %d -> %d (%.2fx > %.2fx tolerance) [%q -> %q]",
					e.ID, p.Allocs, e.Allocs, ratio, maxAllocRatio, prev.Label, cur.Label))
			}
		}
		if maxWallRatio > 0 && p.WallNs > 0 {
			if ratio := float64(e.WallNs) / float64(p.WallNs); ratio > maxWallRatio {
				bad = append(bad, fmt.Sprintf("%s: wall %.1fms -> %.1fms (%.2fx > %.2fx tolerance) [%q -> %q]",
					e.ID, float64(p.WallNs)/1e6, float64(e.WallNs)/1e6, ratio, maxWallRatio, prev.Label, cur.Label))
			}
		}
	}
	// The graph-store timing block gates like an experiment: build and load
	// legs each get the alloc and (optional) wall tolerances. Blocks from
	// before the store existed have no timing and are skipped.
	if prev.Graph != nil && cur.Graph != nil {
		for _, leg := range []struct {
			name   string
			pa, ca uint64
			pw, cw int64
		}{
			{"graphstore build", prev.Graph.BuildAllocs, cur.Graph.BuildAllocs, prev.Graph.BuildNs, cur.Graph.BuildNs},
			{"graphstore load", prev.Graph.LoadAllocs, cur.Graph.LoadAllocs, prev.Graph.LoadNs, cur.Graph.LoadNs},
		} {
			if maxAllocRatio > 0 && leg.pa > 0 {
				if ratio := float64(leg.ca) / float64(leg.pa); ratio > maxAllocRatio {
					bad = append(bad, fmt.Sprintf("%s: allocs %d -> %d (%.2fx > %.2fx tolerance) [%q -> %q]",
						leg.name, leg.pa, leg.ca, ratio, maxAllocRatio, prev.Label, cur.Label))
				}
			}
			if maxWallRatio > 0 && leg.pw > 0 {
				if ratio := float64(leg.cw) / float64(leg.pw); ratio > maxWallRatio {
					bad = append(bad, fmt.Sprintf("%s: wall %.1fms -> %.1fms (%.2fx > %.2fx tolerance) [%q -> %q]",
						leg.name, float64(leg.pw)/1e6, float64(leg.cw)/1e6, ratio, maxWallRatio, prev.Label, cur.Label))
				}
			}
		}
	}
	return bad
}

// runCheck is the -check mode: load the trajectory, gate the newest block
// against its predecessor, and fail loudly on any regression. A missing
// file or a trajectory without a predecessor is not a failure: the gate
// needs two blocks to compare, and a fresh repo legitimately has fewer —
// it reports "no prior block" and passes.
func runCheck(path string, maxWallRatio, maxAllocRatio float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "avgbench: %s: no prior block (file missing), perf gate skipped\n", path)
			return nil
		}
		return err
	}
	f, err := loadBench(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Trajectory) < 2 {
		fmt.Fprintf(os.Stderr, "avgbench: %s: no prior block (%d block(s)), perf gate skipped\n", path, len(f.Trajectory))
		return nil
	}
	bad := checkTrajectory(f, maxWallRatio, maxAllocRatio)
	if len(bad) == 0 {
		fmt.Fprintf(os.Stderr, "avgbench: perf gate ok (%d blocks, newest %q)\n",
			len(f.Trajectory), f.Trajectory[len(f.Trajectory)-1].Label)
		return nil
	}
	for _, line := range bad {
		fmt.Fprintln(os.Stderr, "avgbench: REGRESSION "+line)
	}
	return fmt.Errorf("%d perf regression(s) beyond tolerance", len(bad))
}
