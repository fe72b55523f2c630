package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const schema2Fixture = `{
  "schema": 2,
  "suite": "avgbench E1-E14",
  "trajectory": [
    {
      "label": "seed",
      "total_wall_ns": 100,
      "experiments": [{"id": "E1", "wall_ns": 100, "allocs": 1000, "bytes": 1, "rows": 3, "table_fnv64": "aa"}]
    },
    {
      "label": "pr1",
      "total_wall_ns": 90,
      "experiments": [{"id": "E1", "wall_ns": 90, "allocs": 1100, "bytes": 1, "rows": 3, "table_fnv64": "aa"}]
    }
  ]
}`

func TestLoadBenchRejectsUnknownSchema(t *testing.T) {
	for _, doc := range []string{`{"schema": 9}`, `{"schema": 1}`} {
		if _, err := loadBench([]byte(doc)); err == nil {
			t.Fatalf("%s accepted", doc)
		}
	}
	if _, err := loadBench([]byte(`nope`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestWriteJSONAppends: successive writes grow the trajectory instead of
// overwriting it.
func TestWriteJSONAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(schema2Fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	b3 := &benchBlock{Label: "pr2", Experiments: []expStats{{ID: "E1", WallNs: 95, Allocs: 1050}}}
	if err := writeJSON(path, b3); err != nil {
		t.Fatal(err)
	}
	b4 := &benchBlock{Label: "pr3", Experiments: []expStats{{ID: "E1", WallNs: 96, Allocs: 1040}}}
	if err := writeJSON(path, b4); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != 2 {
		t.Fatalf("schema = %d", f.Schema)
	}
	var labels []string
	for _, b := range f.Trajectory {
		labels = append(labels, b.Label)
	}
	if got := strings.Join(labels, ","); got != "seed,pr1,pr2,pr3" {
		t.Fatalf("trajectory = %s", got)
	}
}

// TestWriteJSONKeepsUnreadableFile: a trajectory file that does not parse
// as schema 2 — truncated, or of another schema — fails the append and is
// left byte-for-byte as it was, instead of being replaced by a one-block
// trajectory that erases the perf history.
func TestWriteJSONKeepsUnreadableFile(t *testing.T) {
	for name, doc := range map[string]string{
		"truncated": schema2Fixture[:len(schema2Fixture)/2],
		"schema 1":  `{"schema": 1, "baseline": null, "current": null}`,
		"schema 9":  `{"schema": 9}`,
	} {
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(path, &benchBlock{Label: "new"}); err == nil {
			t.Fatalf("%s: append to an unreadable trajectory succeeded", name)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != doc {
			t.Fatalf("%s: file rewritten to %q", name, got)
		}
	}
}

func trajOf(blocks ...benchBlock) *benchFile {
	return &benchFile{Schema: 2, Trajectory: blocks}
}

func TestCheckTrajectoryGate(t *testing.T) {
	ok := benchBlock{Label: "prev", Experiments: []expStats{
		{ID: "E1", WallNs: 100, Allocs: 1000},
		{ID: "E2", WallNs: 200, Allocs: 2000},
	}}
	within := benchBlock{Label: "cur", Experiments: []expStats{
		{ID: "E1", WallNs: 110, Allocs: 1200}, // 1.2x, inside 1.25x
		{ID: "E2", WallNs: 190, Allocs: 1900},
	}}
	if bad := checkTrajectory(trajOf(ok, within), 0, 1.25); len(bad) != 0 {
		t.Fatalf("false positive: %v", bad)
	}

	// Alloc regression beyond tolerance trips the gate.
	blown := benchBlock{Label: "cur", Experiments: []expStats{
		{ID: "E1", WallNs: 100, Allocs: 1000},
		{ID: "E2", WallNs: 200, Allocs: 4000}, // 2x
	}}
	bad := checkTrajectory(trajOf(ok, blown), 0, 1.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "E2") || !strings.Contains(bad[0], "allocs") {
		t.Fatalf("alloc regression not flagged: %v", bad)
	}

	// Wall gate only fires when enabled.
	slow := benchBlock{Label: "cur", Experiments: []expStats{
		{ID: "E1", WallNs: 1000, Allocs: 1000}, // 10x wall
		{ID: "E2", WallNs: 200, Allocs: 2000},
	}}
	if bad := checkTrajectory(trajOf(ok, slow), 0, 1.25); len(bad) != 0 {
		t.Fatalf("wall gate fired while disabled: %v", bad)
	}
	bad = checkTrajectory(trajOf(ok, slow), 3.0, 1.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "wall") {
		t.Fatalf("wall regression not flagged: %v", bad)
	}

	// New experiments (no predecessor) and single-block files never gate.
	grown := benchBlock{Label: "cur", Experiments: []expStats{{ID: "E99", WallNs: 1, Allocs: 1}}}
	if bad := checkTrajectory(trajOf(ok, grown), 3.0, 1.25); len(bad) != 0 {
		t.Fatalf("new experiment gated: %v", bad)
	}
	if bad := checkTrajectory(trajOf(ok), 3.0, 1.25); bad != nil {
		t.Fatalf("single block gated: %v", bad)
	}
}

// TestCheckTrajectoryGraphTiming: the graphstore block gates build and
// load legs like experiments, skips blocks that predate the store, and
// respects the wall toggle.
func TestCheckTrajectoryGraphTiming(t *testing.T) {
	gt := func(buildAllocs, loadAllocs uint64, buildNs, loadNs int64) *graphTiming {
		return &graphTiming{Family: "regular", Nodes: 4096, Edges: 12288,
			BuildAllocs: buildAllocs, LoadAllocs: loadAllocs, BuildNs: buildNs, LoadNs: loadNs}
	}
	prev := benchBlock{Label: "prev", Graph: gt(1000, 100, 100, 10)}
	within := benchBlock{Label: "cur", Graph: gt(1200, 110, 100, 10)}
	if bad := checkTrajectory(trajOf(prev, within), 0, 1.25); len(bad) != 0 {
		t.Fatalf("false positive: %v", bad)
	}

	loadBlown := benchBlock{Label: "cur", Graph: gt(1000, 400, 100, 10)} // load allocs 4x
	bad := checkTrajectory(trajOf(prev, loadBlown), 0, 1.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "graphstore load") || !strings.Contains(bad[0], "allocs") {
		t.Fatalf("load alloc regression not flagged: %v", bad)
	}

	slowBuild := benchBlock{Label: "cur", Graph: gt(1000, 100, 1000, 10)} // build wall 10x
	if bad := checkTrajectory(trajOf(prev, slowBuild), 0, 1.25); len(bad) != 0 {
		t.Fatalf("wall gate fired while disabled: %v", bad)
	}
	bad = checkTrajectory(trajOf(prev, slowBuild), 3.0, 1.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "graphstore build") || !strings.Contains(bad[0], "wall") {
		t.Fatalf("build wall regression not flagged: %v", bad)
	}

	// A predecessor without the block (pre-graphstore trajectory) never gates.
	old := benchBlock{Label: "prev"}
	if bad := checkTrajectory(trajOf(old, loadBlown), 3.0, 1.25); len(bad) != 0 {
		t.Fatalf("pre-graphstore block gated: %v", bad)
	}
}

// TestRunCheckSyntheticRegression is the CI gate in miniature: a copy of
// the trajectory with the newest block's allocs inflated must fail -check.
func TestRunCheckSyntheticRegression(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	data, err := json.MarshalIndent(trajOf(
		benchBlock{Label: "prev", Experiments: []expStats{{ID: "E1", WallNs: 100, Allocs: 1000}}},
		benchBlock{Label: "cur", Experiments: []expStats{{ID: "E1", WallNs: 100, Allocs: 1001}}},
	), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(good, 0, 1.25); err != nil {
		t.Fatalf("clean trajectory failed the gate: %v", err)
	}

	regressed := filepath.Join(dir, "bad.json")
	bad := strings.Replace(string(data), `"allocs": 1001`, `"allocs": 10000`, 1)
	if err := os.WriteFile(regressed, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(regressed, 0, 1.25); err == nil {
		t.Fatal("synthetic regression passed the gate")
	}
}

// TestRunCheckNoPriorBlock: the perf gate passes — with a "no prior
// block" notice, not an error — when the trajectory file is missing,
// empty, or holds a single block. A fresh repo has nothing to compare.
func TestRunCheckNoPriorBlock(t *testing.T) {
	dir := t.TempDir()

	if err := runCheck(filepath.Join(dir, "absent.json"), 0, 1.25); err != nil {
		t.Fatalf("missing trajectory file errored: %v", err)
	}

	empty := filepath.Join(dir, "empty.json")
	data, err := json.Marshal(trajOf())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(empty, 0, 1.25); err != nil {
		t.Fatalf("empty trajectory errored: %v", err)
	}

	single := filepath.Join(dir, "single.json")
	data, err = json.Marshal(trajOf(benchBlock{Label: "only", Experiments: []expStats{{ID: "E1", WallNs: 1, Allocs: 1}}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(single, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(single, 0, 1.25); err != nil {
		t.Fatalf("single-block trajectory errored: %v", err)
	}

	// An unreadable-but-present file is still an error: only "nothing to
	// compare" is benign, not corruption.
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(garbled, 0, 1.25); err == nil {
		t.Fatal("corrupt trajectory passed the gate")
	}
}
