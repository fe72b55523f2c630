// Package coloring implements the symmetry-breaking toolbox that the
// paper's deterministic algorithms build on:
//
//   - Cole–Vishkin color reduction on pseudoforests (O(log* n) rounds to 6
//     colors), used by the deterministic ruling sets of Theorem 3 and the
//     deterministic matching of Theorem 5;
//   - Linial's O(Δ²)-coloring via polynomials over GF(q) [Lin87];
//   - Kuhn–Wattenhofer block-parallel reduction to Δ+1 colors;
//   - an MIS sweep over color classes (a proper q-coloring yields an MIS in
//     q rounds);
//   - the randomized (Δ+1)-coloring whose node-averaged complexity is O(1)
//     ([Joh99], observed by [BT19], discussed in Section 1.2).
//
// The deterministic pieces are blocking subroutines over a ProcContext so
// that multi-phase algorithms can run them in lockstep; every node must
// call the same subroutine with consistent arguments in the same round.
package coloring

import (
	"math/rand/v2"
	"slices"

	"avgloc/internal/runtime"
)

// CVRounds returns the number of Cole–Vishkin iterations needed to shrink
// colors of the given bit width below 6. It is a pure function so that all
// nodes agree on the schedule.
func CVRounds(bits int) int {
	// One CV step maps a width-w color to 2*i + b with i < w, so the new
	// value is < 2w and fits in ceil(log2(2w)) bits. Once width reaches 3
	// (values 0..7), a final step yields 2*i + b <= 5, i.e. 6 colors.
	rounds := 1
	for width := bits; width > 3; {
		width = bitsFor(2*width - 1)
		rounds++
	}
	return rounds
}

func bitsFor(v int) int {
	b := 1
	for 1<<b <= v {
		b++
	}
	return b
}

type cvMsg struct{ Color int64 }

// CV6 runs Cole–Vishkin on a pseudoforest: every participating node has at
// most one parent (parentPort, or -1 for roots) and any number of children.
// initial must be a proper coloring along parent edges (unique identifiers
// qualify) of at most `bits` bits. After CVRounds(bits) lockstep rounds the
// returned colors are in {0..5} and proper along parent edges, hence a
// proper 6-coloring of the pseudoforest.
//
// Roots use their own color with the lowest bit flipped as a virtual parent
// color, the standard trick.
func CV6(pc *runtime.ProcContext, initial int64, bits, parentPort int) int {
	color := initial
	for r := CVRounds(bits); r > 0; r-- {
		pc.Broadcast(cvMsg{Color: color})
		in := pc.Step()
		parent := color ^ 1 // virtual parent for roots
		if parentPort >= 0 {
			if m := in[parentPort]; m != nil {
				parent = m.(cvMsg).Color
			}
		}
		i := lowestDifferingBit(color, parent)
		color = int64(2*i) + (color>>uint(i))&1
	}
	return int(color)
}

func lowestDifferingBit(a, b int64) int {
	x := a ^ b
	i := 0
	for x&1 == 0 {
		x >>= 1
		i++
	}
	return i
}

type sweepMsg struct{ Joined bool }

// MISSweep turns a proper q-coloring of the active subgraph into an MIS of
// it in q lockstep rounds: color class c decides in round c, joining unless
// an earlier-class neighbor joined. Silent ports (halted or non-member
// neighbors) never block. Returns membership.
func MISSweep(pc *runtime.ProcContext, q, myColor int) bool {
	blocked := false
	joined := false
	for c := 0; c < q; c++ {
		if c == myColor && !blocked {
			joined = true
			pc.Broadcast(sweepMsg{Joined: true})
		}
		in := pc.Step()
		for _, m := range in {
			if m == nil {
				continue
			}
			if m.(sweepMsg).Joined {
				blocked = true
			}
		}
	}
	return joined
}

// LinialSchedule returns the palette sizes of Linial's coloring for nodes
// with identifiers below space in graphs of maximum degree maxDeg: a pure
// function so all nodes agree. schedule[0] == space and successive entries
// are q² for the chosen primes q; the last entry is the final palette size,
// reached after len(schedule)-1 rounds (O(log* space) many).
func LinialSchedule(space int64, maxDeg int) []int64 {
	if maxDeg < 1 {
		maxDeg = 1
	}
	sched := []int64{space}
	cur := space
	for {
		q, ok := linialPrime(cur, maxDeg)
		if !ok || q*q >= cur {
			return sched
		}
		cur = q * q
		sched = append(sched, cur)
	}
}

// linialPrime picks the prime q and (implicitly) polynomial degree d used
// to reduce a palette of size K: the smallest prime q such that for
// d = ceil(log_q K) - 1 we have q > maxDeg*d. Returns ok=false if no
// progress is possible.
func linialPrime(K int64, maxDeg int) (int64, bool) {
	if K <= 4 {
		return 0, false
	}
	for q := int64(2); q*q < 4*K; q = nextPrime(q + 1) {
		if !isPrime(q) {
			continue
		}
		d := polyDegree(K, q)
		if int64(maxDeg)*d < q {
			return q, true
		}
	}
	return 0, false
}

// polyDegree returns ceil(log_q K) - 1, the degree needed to encode a
// palette of size K as polynomials over GF(q).
func polyDegree(K, q int64) int64 {
	d := int64(0)
	pow := int64(1)
	for pow < K {
		// Guard against overflow: K, q are small in practice.
		pow *= q
		d++
	}
	if d == 0 {
		d = 1
	}
	return d - 1
}

func isPrime(n int64) bool {
	if n < 2 {
		return false
	}
	for f := int64(2); f*f <= n; f++ {
		if n%f == 0 {
			return false
		}
	}
	return true
}

func nextPrime(n int64) int64 {
	for !isPrime(n) {
		n++
	}
	return n
}

type linialMsg struct{ Color int64 }

// Linial runs Linial's coloring over the active subgraph: starting from
// unique identifiers below space, after len(LinialSchedule)-1 lockstep
// rounds every node holds a color in [0, finalPalette) proper on the active
// subgraph, with finalPalette = O(maxDeg²). Silent ports are ignored.
func Linial(pc *runtime.ProcContext, id int64, space int64, maxDeg int) (int64, int64) {
	sched := LinialSchedule(space, maxDeg)
	color := id
	for t := 0; t+1 < len(sched); t++ {
		K := sched[t]
		q, _ := linialPrime(K, maxDeg)
		d := polyDegree(K, q)
		pc.Broadcast(linialMsg{Color: color})
		color = linialStep(color, pc.Step(), q, d)
	}
	return color, sched[len(sched)-1]
}

// linialStep maps color (viewed as a degree-<=d polynomial over GF(q)) to
// (x, p(x)) for an evaluation point x where it differs from the polynomials
// of all neighbors that reported in inbox. Such x exists because the at
// most maxDeg neighbor polynomials each agree with ours on at most d points
// and maxDeg*d < q. It allocates nothing: every polynomial is evaluated
// straight from the base-q digits of its color.
func linialStep(color int64, inbox []runtime.Message, q, d int64) int64 {
	for x := int64(0); x < q; x++ {
		px := polyAt(color, x, q, d)
		ok := true
		for _, m := range inbox {
			if m != nil && polyAt(m.(linialMsg).Color, x, q, d) == px {
				ok = false
				break
			}
		}
		if ok {
			return x*q + px
		}
	}
	// Unreachable when the palette invariant holds (neighbors' colors are
	// distinct from ours); fall back to the identity to stay total.
	return color % (q * q)
}

// polyAt evaluates at x, over GF(q), the polynomial whose coefficients are
// the d+1 low base-q digits of c (the lowest digit is the constant term).
func polyAt(c, x, q, d int64) int64 {
	var acc int64
	xi := int64(1) // x^i mod q
	for i := int64(0); i <= d; i++ {
		acc = (acc + (c%q)*xi) % q
		c /= q
		xi = xi * x % q
	}
	return acc
}

type reduceMsg struct{ Color int64 }

// noColor marks a port in a neighbor-color cache whose neighbor has not
// reported a color (it is halted, inactive or not participating).
const noColor = -1

// neighborColors returns the port-indexed cache of the colors reported in
// inbox. A slice rather than a map keeps the parked proc's stack frame
// small, which matters with one suspended coroutine per node.
func neighborColors(inbox []runtime.Message) []int64 {
	nbr := make([]int64, len(inbox))
	for p := range nbr {
		nbr[p] = noColor
	}
	ingestColors(nbr, inbox)
	return nbr
}

// ingestColors records the colors reported in inbox into the cache.
func ingestColors(nbr []int64, inbox []runtime.Message) {
	for p, m := range inbox {
		if m != nil {
			nbr[p] = m.(reduceMsg).Color
		}
	}
}

// ReduceColorsKW lowers a proper coloring from palette q to palette target
// (>= active degree + 1) with the Kuhn–Wattenhofer block-parallel scheme:
// the palette is split into blocks of 2*target colors and every block
// independently eliminates its upper half one color per round (different
// blocks recolor simultaneously into disjoint ranges, so this is
// conflict-free), halving the palette in target rounds; after
// O(log(q/target)) halvings a final one-at-a-time pass finishes. Total
// O(target * log(q/target)) lockstep rounds, against O(q) for eliminating
// one color per round throughout.
func ReduceColorsKW(pc *runtime.ProcContext, color int64, q, target int64) int64 {
	if q <= target {
		return color
	}
	pc.Broadcast(reduceMsg{Color: color})
	nbr := neighborColors(pc.Step())
	K := q
	blockSize := 2 * target
	for K > blockSize {
		for s := int64(0); s < target; s++ {
			if color%blockSize == target+s {
				base := (color / blockSize) * blockSize
				color = smallestFreeIn(nbr, base, base+target)
				pc.Broadcast(reduceMsg{Color: color})
			}
			ingestColors(nbr, pc.Step())
		}
		// Everyone compacts blocks of 2*target surviving colors (all in
		// the lower half of their block) down to blocks of target: a local
		// renaming, applied to the cache as well.
		remap := func(c int64) int64 { return (c/blockSize)*target + c%blockSize }
		color = remap(color)
		for p, c := range nbr {
			if c != noColor {
				nbr[p] = remap(c)
			}
		}
		K = ((K + blockSize - 1) / blockSize) * target
	}
	for c := K - 1; c >= target; c-- {
		if color == c {
			color = smallestFreeIn(nbr, 0, target)
			pc.Broadcast(reduceMsg{Color: color})
		}
		ingestColors(nbr, pc.Step())
	}
	return color
}

// smallestFreeIn returns the smallest color in [lo, hi) unused by the
// cached active-neighbor colors. The caller guarantees hi-lo exceeds the
// active degree.
func smallestFreeIn(nbr []int64, lo, hi int64) int64 {
	for c := lo; c < hi; c++ {
		if !slices.Contains(nbr, c) {
			return c
		}
	}
	return hi - 1 // unreachable under the degree precondition
}

// RandGreedy is the randomized (Δ+1)-coloring of [Joh99]/[Lub93]: every
// uncolored node tries a uniformly random color from its free palette
// [0, deg(v)] and keeps it if no uncolored neighbor tried the same color.
// Each uncolored node succeeds with constant probability per phase, so the
// node-averaged complexity is O(1) ([BT19], Section 1.2 of the paper).
// Node outputs are int colors in [0, Δ+1).
type RandGreedy struct{}

// Name implements runtime.Algorithm.
func (RandGreedy) Name() string { return "coloring/randgreedy" }

type tryMsg struct {
	Color int64
	Final bool
}

// Node implements runtime.Algorithm.
func (RandGreedy) Node(view runtime.NodeView) runtime.Program {
	return &randGreedyNode{rng: view.Rand, deg: view.Degree}
}

type randGreedyNode struct {
	rng       *rand.Rand
	deg       int
	taken     map[int64]bool
	tentative int64
}

var _ runtime.Program = (*randGreedyNode)(nil)

func (n *randGreedyNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	if n.taken == nil {
		n.taken = make(map[int64]bool, n.deg)
	}
	// Finalized colors may arrive in either step; ingest them first.
	conflict := false
	for _, m := range inbox {
		if m == nil {
			continue
		}
		t := m.(tryMsg)
		if t.Final {
			n.taken[t.Color] = true
		} else if t.Color == n.tentative {
			conflict = true
		}
	}
	if ctx.Round()%2 == 0 { // try step
		n.tentative = n.freeColor()
		ctx.Broadcast(tryMsg{Color: n.tentative})
		return
	}
	// resolve step: keep the tentative color unless an uncolored neighbor
	// tried it too or a neighbor finalized it meanwhile.
	if !conflict && !n.taken[n.tentative] {
		ctx.CommitNode(int(n.tentative))
		ctx.Broadcast(tryMsg{Color: n.tentative, Final: true})
		ctx.Halt()
	}
}

// freeColor samples uniformly from [0, deg] minus the taken set.
func (n *randGreedyNode) freeColor() int64 {
	free := make([]int64, 0, n.deg+1)
	for c := int64(0); c <= int64(n.deg); c++ {
		if !n.taken[c] {
			free = append(free, c)
		}
	}
	return free[n.rng.IntN(len(free))]
}
