package runtime

import (
	"fmt"
	"math/rand/v2"

	"avgloc/internal/graph"
)

// execution holds the mutable state of one run. Its buffers are carved out
// of a handful of shared arenas sized from the graph's arc structure, so
// engine setup performs O(1) allocations per run instead of O(1) per node,
// and an execution bound to a graph can be reset and reused across trials
// (see Engine).
type execution struct {
	g   *graph.Graph
	alg Algorithm
	cfg Config

	// Static topology, computed once per graph.
	arcOff  []int32 // len n+1: prefix sums of degrees
	scatter []int32 // arc (v,p) -> destination arc index at the receiver

	// Message double buffer, len arcs each.
	cur  []Message
	next []Message

	// Per-node state. ctxs, views, rngs and pcgs are dense arenas; the
	// per-node slices (NeighborIDs, outbox, edge ledgers) are windows into
	// the shared arc-indexed arenas below.
	progs     []Program
	ctxs      []Context
	views     []NodeView
	rngs      []rand.Rand
	pcgs      []rand.PCG
	nbrIDs    []int64   // len arcs: NeighborIDs arena
	outbox    []Message // len arcs: Context.outbox arena
	edgeOut   []Message // len arcs: Context.edgeOut arena
	edgeSet   []bool    // len arcs: Context.edgeSet arena
	edgeRound []int32   // len arcs: Context.edgeRound arena

	haltAt []int32

	// active is the frontier worklist: exactly the nodes that have not
	// halted, in increasing order. A node leaves the list at its halt round
	// (stable in-place compaction), so per-round work is O(Σ deg(active))
	// rather than O(n).
	active []int32

	maxRounds int
}

// newExecution allocates an execution for g. Only topology-independent
// sizing happens here; per-run state is installed by reset. Setup is
// O(n + m): the Δ lookup is a cached graph attribute and every per-node
// buffer is a window into a shared arena.
func newExecution(g *graph.Graph) *execution {
	n := g.N()
	ex := &execution{
		g:      g,
		arcOff: make([]int32, n+1),
		progs:  make([]Program, n),
		ctxs:   make([]Context, n),
		views:  make([]NodeView, n),
		rngs:   make([]rand.Rand, n),
		pcgs:   make([]rand.PCG, n),
		haltAt: make([]int32, n),
		active: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		ex.arcOff[v+1] = ex.arcOff[v] + int32(g.Deg(v))
	}
	arcs := int(ex.arcOff[n])
	ex.scatter = make([]int32, arcs)
	for v := 0; v < n; v++ {
		for p := 0; p < g.Deg(v); p++ {
			u := g.Neighbor(v, p)
			q := g.TwinPort(v, p)
			ex.scatter[ex.arcOff[v]+int32(p)] = ex.arcOff[u] + int32(q)
		}
	}
	ex.cur = make([]Message, arcs)
	ex.next = make([]Message, arcs)
	ex.nbrIDs = make([]int64, arcs)
	ex.outbox = make([]Message, arcs)
	ex.edgeOut = make([]Message, arcs)
	ex.edgeSet = make([]bool, arcs)
	ex.edgeRound = make([]int32, arcs)
	return ex
}

// reset installs a fresh run of alg under cfg, reusing every arena. After
// reset the execution is in the same state a freshly built seed-engine
// execution would be in.
func (ex *execution) reset(alg Algorithm, cfg Config) {
	g := ex.g
	n := g.N()
	ex.alg = alg
	ex.cfg = cfg
	ex.maxRounds = cfg.MaxRounds
	if ex.maxRounds <= 0 {
		ex.maxRounds = DefaultMaxRounds(n)
	}
	// Message buffers may hold leftovers from an aborted run; per-step
	// inbox clearing only guarantees cleanliness for completed runs.
	clear(ex.cur)
	clear(ex.next)
	clear(ex.outbox)
	clear(ex.edgeOut)
	clear(ex.edgeSet)
	clear(ex.edgeRound)
	ex.active = ex.active[:cap(ex.active)]
	maxDeg := g.MaxDegree()
	for v := 0; v < n; v++ {
		lo, hi := ex.arcOff[v], ex.arcOff[v+1]
		nbr := ex.nbrIDs[lo:hi:hi]
		for p, u := range g.Neighbors(v) {
			nbr[p] = cfg.IDs[u]
		}
		ex.pcgs[v] = *rand.NewPCG(cfg.Seed, uint64(v)*0x9E3779B97F4A7C15+0xD1B54A32D192ED03)
		ex.rngs[v] = *rand.New(&ex.pcgs[v])
		ex.views[v] = NodeView{
			ID:          cfg.IDs[v],
			Degree:      int(hi - lo),
			NeighborIDs: nbr,
			N:           n,
			MaxDegree:   maxDeg,
			Rand:        &ex.rngs[v],
		}
		ex.ctxs[v] = Context{
			view:      &ex.views[v],
			outbox:    ex.outbox[lo:hi:hi],
			nodeRound: -1,
			edgeOut:   ex.edgeOut[lo:hi:hi],
			edgeSet:   ex.edgeSet[lo:hi:hi],
			edgeRound: ex.edgeRound[lo:hi:hi],
		}
		ex.haltAt[v] = -1
		ex.active[v] = int32(v)
		ex.progs[v] = alg.Node(ex.views[v])
	}
}

// step runs node v for the given round against the current inbox and
// scatters its outbox. The inbox is cleared after delivery, which keeps the
// double buffer clean without a full O(m) sweep per round: a slot is
// non-nil only while it carries an undelivered message for a live node.
func (ex *execution) step(v int, round int32) {
	ctx := &ex.ctxs[v]
	ctx.round = round
	inbox := ex.cur[ex.arcOff[v]:ex.arcOff[v+1]]
	ex.progs[v].Round(ctx, inbox)
	clear(inbox)
	base := ex.arcOff[v]
	for p, m := range ctx.outbox {
		if m != nil {
			ex.next[ex.scatter[base+int32(p)]] = m
			ctx.outbox[p] = nil
		}
	}
}

// flip swaps the message buffers. Stale slots need no sweep: step clears
// each inbox on delivery, and slots addressed to halted nodes are never
// read again.
func (ex *execution) flip() {
	ex.cur, ex.next = ex.next, ex.cur
}

// stopPrograms unwinds any proc coroutines still suspended (blocking-style
// programs interrupted by a round-limit abort or a panic).
func (ex *execution) stopPrograms() {
	for _, p := range ex.progs {
		if s, ok := p.(stopper); ok {
			s.Stop()
		}
	}
}

// runFrontier is the round executor. Per-round cost is proportional to
// the active frontier, not to n: each round steps exactly the live nodes
// and compacts the worklist in place (stably, preserving increasing node
// order) as nodes halt. This is what makes simulation wall-clock track the
// node-averaged structure of the paper — when most nodes finish in O(1)
// rounds, most of the simulation's work is over after O(1) rounds too.
func (ex *execution) runFrontier() (*Result, error) {
	defer ex.stopPrograms()
	round := int32(0)
	for {
		w := 0
		for _, v := range ex.active {
			ex.step(int(v), round)
			if ex.ctxs[v].halted {
				ex.haltAt[v] = round
			} else {
				ex.active[w] = v
				w++
			}
		}
		ex.active = ex.active[:w]
		if w == 0 {
			return ex.collect(int(round))
		}
		if int(round) >= ex.maxRounds {
			return nil, fmt.Errorf("%w: %s did not finish within %d rounds on %s",
				ErrRoundLimit, ex.alg.Name(), ex.maxRounds, ex.g)
		}
		ex.flip()
		round++
	}
}

// collect merges the per-node ledgers into a Result. Every slice placed in
// the Result is freshly allocated: the execution's arenas are reused by the
// next reset, so nothing in a Result may alias them.
func (ex *execution) collect(rounds int) (*Result, error) {
	n, m := ex.g.N(), ex.g.M()
	res := &Result{
		Rounds:     rounds,
		NodeCommit: make([]int32, n),
		EdgeCommit: make([]int32, m),
		NodeHalt:   append([]int32(nil), ex.haltAt...),
		NodeOut:    make([]any, n),
		EdgeOut:    make([]any, m),
	}
	for e := 0; e < m; e++ {
		res.EdgeCommit[e] = -1
	}
	var errs []error
	for v := 0; v < n; v++ {
		ctx := &ex.ctxs[v]
		errs = append(errs, ctx.commitErrs...)
		res.NodeCommit[v] = ctx.nodeRound
		res.NodeOut[v] = ctx.nodeOut
		res.Messages += ctx.sent
		for p := 0; p < ex.g.Deg(v); p++ {
			if !ctx.edgeSet[p] {
				continue
			}
			e := ex.g.EdgeID(v, p)
			r := ctx.edgeRound[p]
			switch {
			case res.EdgeCommit[e] < 0:
				res.EdgeCommit[e] = r
				res.EdgeOut[e] = ctx.edgeOut[p]
			default:
				// Both endpoints committed: values must agree. Edge outputs
				// are required to be comparable types.
				if res.EdgeOut[e] != any(ctx.edgeOut[p]) {
					errs = append(errs, fmt.Errorf(
						"runtime: edge %d committed inconsistently (%v vs %v)",
						e, res.EdgeOut[e], ctx.edgeOut[p]))
				}
				if r < res.EdgeCommit[e] {
					res.EdgeCommit[e] = r
				}
			}
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("runtime: %d commit errors, first: %w", len(errs), errs[0])
	}
	return res, nil
}
