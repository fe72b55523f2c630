package graph_test

import (
	"math/rand/v2"
	"testing"

	"avgloc/internal/graph"
)

// TestCycleScannerMatchesSingleQuery: a reused scanner must answer exactly
// like fresh single-shot queries, for bounded and unbounded searches.
func TestCycleScannerMatchesSingleQuery(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 8; trial++ {
		g := graph.GNP(40+trial*10, 0.08, rng)
		scan := g.NewCycleScanner()
		for _, maxLen := range []int{0, 3, 4, 5, 8} {
			for v := 0; v < g.N(); v++ {
				want := g.ShortestCycleThrough(v, maxLen)
				got := scan.ShortestCycleThrough(v, maxLen)
				if want != got {
					t.Fatalf("trial %d node %d maxLen %d: scanner %d, single-shot %d", trial, v, maxLen, got, want)
				}
			}
		}
	}
}

// TestMaxDegreeCached: the build-time Δ matches a direct degree scan on a
// variety of graphs, including after derived-graph constructions.
func TestMaxDegreeCached(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	graphs := []*graph.Graph{
		graph.Cycle(10),
		graph.Path(7),
		graph.Complete(6),
		graph.GNP(50, 0.1, rng),
		graph.RandomRegular(64, 5, rng),
		graph.LineGraph(graph.RandomRegular(32, 4, rng)),
	}
	if b := graph.NewBuilder(3); true {
		g, err := b.Build() // edgeless graph
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		want := 0
		for v := 0; v < g.N(); v++ {
			if d := g.Deg(v); d > want {
				want = d
			}
		}
		if got := g.MaxDegree(); got != want {
			t.Fatalf("graph %d: MaxDegree() = %d, degree scan says %d", i, got, want)
		}
	}
}

// bruteShortestCycleThrough is the oracle for ShortestCycleThrough: for
// each edge {v,u} at v it deletes that edge, measures the BFS distance from
// u back to v, and closes a cycle of that distance plus one; the answer is
// the minimum over v's edges, or -1.
func bruteShortestCycleThrough(g *graph.Graph, v int) int {
	best := -1
	dist := make([]int, g.N())
	for p, skip := range g.EdgeIDs(v) {
		for i := range dist {
			dist[i] = -1
		}
		u := g.Neighbor(v, p)
		dist[u] = 0
		queue := []int{u}
		for len(queue) > 0 && dist[v] < 0 {
			x := queue[0]
			queue = queue[1:]
			for q, e := range g.EdgeIDs(x) {
				if y := g.Neighbor(x, q); e != skip && dist[y] < 0 {
					dist[y] = dist[x] + 1
					queue = append(queue, y)
				}
			}
		}
		if l := dist[v] + 1; dist[v] >= 0 && (best < 0 || l < best) {
			best = l
		}
	}
	return best
}

// randomMultigraph draws a sparse-to-dense multigraph: random pairs plus,
// now and then, a second copy of an edge already drawn. Sparse draws have
// long shortest cycles, dense ones short cycles, so every bound matters.
func randomMultigraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.IntN(40)
	m := rng.IntN(n + n/2 + 2)
	if rng.IntN(4) == 0 {
		m = rng.IntN(3 * n)
	}
	var edges [][2]int
	for len(edges) < m {
		if len(edges) > 0 && rng.IntN(12) == 0 {
			edges = append(edges, edges[rng.IntN(len(edges))])
			continue
		}
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestCycleScannerMatchesBruteForce: the scanner's early cutoff must not
// change any answer. A reused scanner and Girth are checked against the
// edge-deletion oracle on random multigraphs at every bound.
func TestCycleScannerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for trial := 0; trial < 400; trial++ {
		g := randomMultigraph(rng)
		scan := g.NewCycleScanner()
		girth := -1
		for v := 0; v < g.N(); v++ {
			exact := bruteShortestCycleThrough(g, v)
			if exact > 0 && (girth < 0 || exact < girth) {
				girth = exact
			}
			for _, maxLen := range []int{0, 2, 3, 4, 5, 6, 7, 9} {
				want := exact
				if maxLen > 0 && exact > maxLen {
					want = -1
				}
				if got := scan.ShortestCycleThrough(v, maxLen); got != want {
					t.Fatalf("trial %d (n=%d m=%d) node %d maxLen %d: scanner %d, oracle %d",
						trial, g.N(), g.M(), v, maxLen, got, want)
				}
			}
		}
		if got := g.Girth(); got != girth {
			t.Fatalf("trial %d (n=%d m=%d): Girth %d, oracle %d", trial, g.N(), g.M(), got, girth)
		}
	}
}
