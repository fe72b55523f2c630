package lift_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"avgloc/internal/graph"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/lift"
)

func TestRandomLiftIsCoveringMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	bases := []*graph.Graph{
		graph.Cycle(8),
		graph.Complete(5),
		graph.RandomRegular(30, 3, rng),
		graph.Grid(4, 5),
	}
	for i, base := range bases {
		for _, q := range []int{1, 2, 7} {
			lifted, err := lift.Random(base, q, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := lift.IsCoveringMap(base, lifted, q); err != nil {
				t.Fatalf("base %d q=%d: %v", i, q, err)
			}
		}
	}
	if _, err := lift.Random(graph.Cycle(3), 0, rng); err == nil {
		t.Fatal("order 0 accepted")
	}
}

// Property: lifts are covering maps for random bases and orders.
func TestLiftProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 5 + int(seed%15)
		q := 1 + int(seed%6)
		base := graph.GNP(n, 0.3, rng)
		lifted, err := lift.Random(base, q, rng)
		if err != nil {
			return false
		}
		return lift.IsCoveringMap(base, lifted, q) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLiftIncreasesGirthiness(t *testing.T) {
	// Lemma 12 in action: K4 is full of triangles; its order-q lift has
	// a short-cycle fraction that decreases as q grows.
	rng := rand.New(rand.NewPCG(73, 74))
	base := graph.Complete(4)
	fracs := make([]float64, 0, 3)
	for _, q := range []int{1, 16, 256} {
		lifted, err := lift.Random(base, q, rng)
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, lift.ShortCycleFraction(lifted, 3))
	}
	if fracs[0] != 1 {
		t.Fatalf("K4 itself has triangle fraction %v, want 1", fracs[0])
	}
	if !(fracs[2] < fracs[1] && fracs[1] < fracs[0]) {
		t.Fatalf("triangle fraction should fall with q: %v", fracs)
	}
}

func TestLiftedInstanceKeepsClusters(t *testing.T) {
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(75, 76))
	inst, err := lift.BuildInstance(base, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := lift.IsCoveringMap(base.G, inst.G, 4); err != nil {
		t.Fatal(err)
	}
	// Cluster sizes scale by q and the lifted S(c0) stays independent.
	for v := range base.Clusters {
		if got, want := len(inst.Cluster(v)), 4*len(base.Clusters[v]); got != want {
			t.Fatalf("cluster %d: %d lifted nodes, want %d", v, got, want)
		}
	}
	inS0 := make([]bool, inst.G.N())
	for _, v := range inst.Cluster(0) {
		inS0[v] = true
	}
	if err := graph.IsIndependentSet(inst.G, inS0); err != nil {
		t.Fatalf("lifted S(c0) not independent: %v", err)
	}
	// Inherited labels: every arc keeps its base label.
	for v := 0; v < inst.G.N() && v < 200; v++ {
		for _, u := range inst.G.Neighbors(v) {
			if _, ok := inst.Label(int32(v), u); !ok {
				t.Fatalf("lifted arc %d→%d unlabeled", v, u)
			}
		}
	}
}

// ScanCycles must reproduce the separate scans it replaces: the
// short-cycle fractions per bound and the girth, including forests (girth
// -1) and graphs with no cycle within the largest bound (the Girth
// fallback).
func TestScanCyclesMatchesSeparateScans(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*graph.Graph
	for _, q := range []int{1, 2, 4, 8} {
		for _, b := range []*graph.Graph{base.G, graph.Complete(5), graph.RandomRegular(40, 3, rng)} {
			lifted, err := lift.Random(b, q, rng)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, lifted)
		}
	}
	forest, _ := graph.Disjoint(graph.RandomTree(30, rng), graph.Path(7), graph.Star(5))
	girth6, err := lift.Random(graph.Cycle(6), 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, forest, girth6, graph.Cycle(6), graph.Path(1))

	for i, g := range graphs {
		st := lift.ScanCycles(g, 3, 5)
		if want := lift.ShortCycleFraction(g, 3); st.ShortFrac[0] != want {
			t.Fatalf("graph %d (%v): frac ℓ≤3 %v, want %v", i, g, st.ShortFrac[0], want)
		}
		if want := lift.ShortCycleFraction(g, 5); st.ShortFrac[1] != want {
			t.Fatalf("graph %d (%v): frac ℓ≤5 %v, want %v", i, g, st.ShortFrac[1], want)
		}
		if want := g.Girth(); st.Girth != want {
			t.Fatalf("graph %d (%v): girth %d, want %d", i, g, st.Girth, want)
		}
	}
	if got := lift.ScanCycles(forest, 3, 5).Girth; got != -1 {
		t.Fatalf("forest girth %d, want -1", got)
	}
	if got := lift.ScanCycles(girth6, 3, 5).Girth; got < 6 {
		t.Fatalf("lift of C6 has girth %d, want >= 6", got)
	}
}

// BenchmarkScanCyclesLift scans E8's largest quick-scale lift (the q=16
// lift of G_1(β=4), n=4608, Δ=32, drawn as at seed 42) for its ℓ≤3 and
// ℓ≤5 fractions and girth.
func BenchmarkScanCyclesLift(b *testing.B) {
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 8))
	var g *graph.Graph
	for _, q := range []int{1, 4, 16} {
		if g, err = lift.Random(base.G, q, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := lift.ScanCycles(g, 3, 5); st.Girth <= 0 {
			b.Fatalf("girth = %d", st.Girth)
		}
	}
}
