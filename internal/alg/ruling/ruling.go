// Package ruling implements the ruling-set algorithms of the paper.
//
// Theorem 2: a randomized CONGEST algorithm computing a (2,2)-ruling set
// with node-averaged complexity O(1) — the "minimal relaxation of MIS that
// avoids the KMW lower bound". Each phase, every active node marks itself
// with probability 1/(deg+1); marked nodes without a marked higher-priority
// neighbor join, and everything within distance 2 of a joiner retires.
//
// Theorem 3: deterministic CONGEST algorithms computing (2, O(log Δ))- and
// (2, O(log log n))-ruling sets with node-averaged complexity O(log* n),
// via repeated dominating-set halving (the pseudoforest algorithm of
// footnote 7) followed by an MIS finisher on the few remaining nodes.
//
// Node outputs are bool: true = in the ruling set.
package ruling

import (
	"math"
	"math/rand/v2"

	"avgloc/internal/alg/coloring"
	"avgloc/internal/runtime"
)

// Output values.
const (
	In  = true
	Out = false
)

// Rand22 is the Theorem 2 algorithm. Each phase takes 5 rounds:
// alive-census, mark, join, distance-1 retire, distance-2 retire.
type Rand22 struct{}

// Name implements runtime.Algorithm.
func (Rand22) Name() string { return "ruling/rand22" }

const (
	stepAlive = iota
	stepMark
	stepJoin
	stepCover1
	stepCover2
	phaseLen
)

type aliveMsg struct{}

type markMsg struct {
	Deg int
	ID  int64
}

type rulerMsg struct{}

type coveredMsg struct{}

// Node implements runtime.Algorithm.
func (Rand22) Node(view runtime.NodeView) runtime.Program {
	return &rand22Node{rng: view.Rand, id: view.ID}
}

type rand22Node struct {
	rng    *rand.Rand
	id     int64
	deg    int // active degree, refreshed each phase
	marked bool
}

var _ runtime.Program = (*rand22Node)(nil)

func (n *rand22Node) Round(ctx *runtime.Context, inbox []runtime.Message) {
	switch ctx.Round() % phaseLen {
	case stepAlive:
		ctx.Broadcast(aliveMsg{})
	case stepMark:
		n.deg = 0
		for _, m := range inbox {
			if _, ok := m.(aliveMsg); ok {
				n.deg++
			}
		}
		n.marked = n.rng.Float64() < 1/float64(n.deg+1)
		if n.marked {
			ctx.Broadcast(markMsg{Deg: n.deg, ID: n.id})
		}
	case stepJoin:
		if !n.marked {
			return
		}
		// Join unless a marked neighbor has higher priority: larger active
		// degree, ties broken by larger identifier (Theorem 2).
		join := true
		for _, m := range inbox {
			mm, ok := m.(markMsg)
			if !ok {
				continue
			}
			if mm.Deg > n.deg || (mm.Deg == n.deg && mm.ID > n.id) {
				join = false
				break
			}
		}
		if join {
			ctx.CommitNode(In)
			ctx.Broadcast(rulerMsg{})
			ctx.Halt()
		}
	case stepCover1:
		for _, m := range inbox {
			if _, ok := m.(rulerMsg); ok {
				ctx.CommitNode(Out)
				ctx.Broadcast(coveredMsg{})
				ctx.Halt()
				return
			}
		}
	case stepCover2:
		for _, m := range inbox {
			if _, ok := m.(coveredMsg); ok {
				ctx.CommitNode(Out)
				ctx.Halt()
				return
			}
		}
	}
}

// DetVariant selects the stopping rule of the Theorem 3 algorithm.
type DetVariant int

const (
	// LogDelta runs Θ(log Δ) halving iterations: a (2, O(log Δ))-ruling set.
	LogDelta DetVariant = iota + 1
	// LogLogN runs Θ(log log n) halving iterations: a (2, O(log log n))-
	// ruling set (intended for Δ = polylog(n) workloads; see DESIGN.md §3).
	LogLogN
)

// Det is the Theorem 3 deterministic ruling-set algorithm. Every iteration
// computes a dominating set of the active graph via the pseudoforest
// algorithm of footnote 7 (point at your smallest-identifier active
// neighbor; parents of leaves dominate; a Cole–Vishkin MIS sweep covers the
// remaining pseudoforest) and retires everything outside it; after the
// iterations an MIS of the few surviving nodes is computed with Linial
// coloring, color reduction and a class sweep.
//
// The identifier space is assumed to be < n² (both ids.RandomPerm and
// ids.RandomSparse satisfy this).
type Det struct {
	Variant DetVariant
	// IterationFactor scales the number of halving iterations (default 3,
	// which drives the surviving count low enough that the finisher's
	// contribution to the node average is negligible; see DESIGN.md).
	IterationFactor int
}

// Name implements runtime.Algorithm.
func (d Det) Name() string {
	if d.Variant == LogLogN {
		return "ruling/det-loglogn"
	}
	return "ruling/det-logdelta"
}

// Iterations returns the number of halving iterations for the given global
// parameters; exported so experiments can report the β target.
func (d Det) Iterations(n, maxDeg int) int {
	f := d.IterationFactor
	if f <= 0 {
		f = 3
	}
	var base float64
	if d.Variant == LogLogN {
		base = math.Log2(math.Log2(float64(n)) + 1)
	} else {
		base = math.Log2(float64(maxDeg) + 1)
	}
	it := int(math.Ceil(float64(f) * base))
	if it < 1 {
		it = 1
	}
	return it
}

type censusMsg struct{ ID int64 }

type chosenMsg struct{}

type leafMsg struct{}

type leafParentMsg struct{}

type removedMsg struct{}

// Node implements runtime.Algorithm.
func (d Det) Node(view runtime.NodeView) runtime.Program {
	return runtime.BlockingProgram(view, func(pc *runtime.ProcContext) { d.run(pc) })
}

func (d Det) run(pc *runtime.ProcContext) {
	view := pc.View()
	space := int64(view.N) * int64(view.N)
	if space < 4 {
		space = 4
	}
	bits := bitsFor64(space - 1)
	iters := d.Iterations(view.N, view.MaxDegree)

	// A heap slice shared by every iteration: a per-iteration map would
	// live in the proc's stack frame, and every suspended node holds one.
	children := make([]bool, view.Degree)
	for it := 0; it < iters; it++ {
		if d.halvingIteration(pc, children, bits) {
			return // retired: output already committed
		}
	}

	// Finisher: MIS of the surviving graph via Linial + reduction + sweep.
	color, palette := coloring.Linial(pc, view.ID, space, view.MaxDegree)
	target := int64(view.MaxDegree + 1)
	if palette > target {
		color = coloring.ReduceColorsKW(pc, color, palette, target)
	} else {
		target = palette
	}
	if coloring.MISSweep(pc, int(target), int(color)) {
		pc.CommitNode(In)
	} else {
		pc.CommitNode(Out)
	}
}

// halvingIteration runs one dominating-set iteration. It reports whether
// this node retired (committed Out); otherwise the node is in the
// dominating set and stays active.
func (d Det) halvingIteration(pc *runtime.ProcContext, children []bool, bits int) bool {
	// Round 1: census of active neighbors.
	pc.Broadcast(censusMsg{ID: pc.View().ID})
	in := pc.Step()
	parentPort := -1
	var parentID int64
	for p, m := range in {
		if cm, ok := m.(censusMsg); ok && (parentPort < 0 || cm.ID < parentID) {
			parentPort, parentID = p, cm.ID
		}
	}

	// Isolated nodes idle through this iteration in lockstep and survive;
	// they join the ruling set in the finisher.
	if parentPort < 0 {
		pc.StepN(d.iterationRounds(bits) - 1)
		return false
	}

	// Round 2: point at the smallest-identifier active neighbor.
	pc.Send(parentPort, chosenMsg{})
	in = pc.Step()
	degP := 0
	for p, m := range in {
		_, ok := m.(chosenMsg)
		children[p] = ok
		if ok {
			degP++
		}
	}

	// Pseudoforest degree: children plus the parent edge unless mutual.
	if !children[parentPort] {
		degP++
	}
	isLeaf := degP == 1

	// Round 3: leaves notify their parent.
	if isLeaf {
		pc.Send(parentPort, leafMsg{})
	}
	in = pc.Step()
	leafParent := false
	for _, m := range in {
		if _, ok := m.(leafMsg); ok {
			leafParent = true
			break
		}
	}

	// Round 4: leaf-parents announce; pseudoforest neighbors of a
	// leaf-parent leave the pseudoforest.
	if leafParent {
		pc.Broadcast(leafParentMsg{})
	}
	in = pc.Step()
	removed := isLeaf || leafParent
	for p, m := range in {
		if _, ok := m.(leafParentMsg); !ok {
			continue
		}
		if p == parentPort || children[p] {
			removed = true
		}
	}

	// Round 5: removed nodes tell their pseudoforest neighbors, so the
	// rest knows its surviving pseudoforest parent.
	if removed {
		pc.Broadcast(removedMsg{})
	}
	in = pc.Step()
	cvParent := parentPort
	if removed {
		cvParent = -1
	} else if m := in[parentPort]; m != nil {
		if _, ok := m.(removedMsg); ok {
			cvParent = -1
		}
	}

	// Retired nodes (outside the dominating set, dominated by a
	// leaf-parent) commit immediately and halt; nobody reads from them
	// again. Leaf-parents are in the dominating set but outside the
	// surviving pseudoforest: they idle in lockstep while the rest runs
	// Cole–Vishkin and the MIS sweep.
	if removed && !leafParent {
		pc.CommitNode(Out)
		return true
	}
	if removed && leafParent {
		pc.StepN(coloring.CVRounds(bits) + 6)
		return false
	}
	color := coloring.CV6(pc, pc.View().ID, bits, cvParent)
	join := coloring.MISSweep(pc, 6, color)
	if leafParent || join {
		return false
	}
	pc.CommitNode(Out)
	return true
}

// iterationRounds is the fixed lockstep length of one halving iteration.
func (d Det) iterationRounds(bits int) int {
	return 5 + coloring.CVRounds(bits) + 6
}

func bitsFor64(v int64) int {
	b := 1
	for int64(1)<<uint(b) <= v {
		b++
	}
	return b
}

// SetFromResult extracts the ruling-set membership vector from a run.
func SetFromResult(res *runtime.Result) []bool {
	in := make([]bool, len(res.NodeOut))
	for v, out := range res.NodeOut {
		if b, ok := out.(bool); ok && b {
			in[v] = true
		}
	}
	return in
}
