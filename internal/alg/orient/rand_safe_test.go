package orient

// White-box test: the stamped, early-exit orientationSafe must return the
// same verdict as the whole-component map-based BFS it replaced.

import (
	"math/rand/v2"
	"testing"

	"avgloc/internal/graph"
)

// orientationSafeReference is the original orientationSafe: a BFS over the
// whole pool component of `to` (minus e) through map visited sets, safe iff
// it reaches a satisfied node or has at least as many edges as nodes.
func orientationSafeReference(g *graph.Graph, toward []int32, satisfied []bool, e, to int) bool {
	visitedNodes := map[int]bool{to: true}
	visitedEdges := map[int]bool{e: true}
	queue := []int{to}
	nodes, edges := 1, 0
	anchored := false
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if satisfied[x] {
			anchored = true
			break
		}
		for p := 0; p < g.Deg(x); p++ {
			ex := g.EdgeID(x, p)
			if toward[ex] >= 0 || visitedEdges[ex] {
				continue
			}
			visitedEdges[ex] = true
			edges++
			u := g.Neighbor(x, p)
			if !visitedNodes[u] {
				visitedNodes[u] = true
				nodes++
				queue = append(queue, u)
			}
		}
	}
	if anchored {
		return true
	}
	return edges >= nodes
}

// TestOrientationSafeMatchesReference compares both versions on every pool
// edge and both of its endpoints, over random partial orientations of
// random 3-regular graphs. Heavily oriented draws split the pool into
// trees, lightly oriented ones leave cycles, and the satisfied rate sets
// how often a component is anchored; one scratch serves every call on a
// graph, as in RandMarking.Run.
func TestOrientationSafeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	verdicts := [2]int{}
	for trial := 0; trial < 120; trial++ {
		n := 2 * (2 + rng.IntN(60))
		g := graph.RandomRegular(n, 3, rng)
		oriented := []float64{0.2, 0.5, 0.7, 0.85}[trial%4]
		satRate := []float64{0, 0.03, 0.15, 0.5}[trial/4%4]
		toward := make([]int32, g.M())
		for e := range toward {
			toward[e] = -1
			if rng.Float64() < oriented {
				u, v := g.Endpoints(e)
				toward[e] = int32([2]int{u, v}[rng.IntN(2)])
			}
		}
		satisfied := make([]bool, n)
		for v := range satisfied {
			satisfied[v] = rng.Float64() < satRate
		}
		sc := newSafetyScratch(g)
		for e := 0; e < g.M(); e++ {
			if toward[e] >= 0 {
				continue
			}
			u, v := g.Endpoints(e)
			for _, to := range []int{u, v} {
				want := orientationSafeReference(g, toward, satisfied, e, to)
				if got := sc.orientationSafe(g, toward, satisfied, e, to); got != want {
					t.Fatalf("trial %d (n=%d) edge %d toward %d: got %v, reference %v", trial, n, e, to, got, want)
				}
				if want {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("draws never exercised both verdicts: %d unsafe, %d safe", verdicts[0], verdicts[1])
	}
}
