// Package runtime implements the synchronous LOCAL/CONGEST round engine of
// Section 2 of the paper. An algorithm is a per-node program; in every
// synchronous round each node receives the messages its neighbors sent in
// the previous round, updates its state, and sends new messages. The engine
// records, for every node and every edge, the round at which its output was
// committed — the "computation time" T_v, T_e of Definition 1.
//
// Rounds run on one executor, the frontier executor, which steps nodes in
// increasing order. Node programs are pure functions of their local state,
// inbox and node-private PRNG, so step order within a round cannot change
// a result; a white-box test holds the executor to a plain all-nodes
// reference loop.
//
// The frontier executor maintains an active worklist holding exactly the
// nodes that have not halted; a node leaves the worklist at its halt round
// (the frontier invariant), so the cost of a round is proportional to the
// surviving frontier, not to n. Under the paper's node-averaged regime —
// where all but a vanishing fraction of nodes finish in O(1) rounds — total
// simulation work is Θ(Σ_v T_v) instead of Θ(n · max_v T_v).
//
// Engine binds an executor to one graph and reuses its internal arenas
// across runs, which makes repeated trials on the same graph (the shape of
// every measurement loop in internal/core) allocation-light.
package runtime

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"avgloc/internal/graph"
)

// Message is an opaque payload delivered to a neighbor one round after
// being sent. Implementations should be immutable values.
type Message any

// NodeView is the static local information a node starts with: its own
// identifier, port-numbered neighborhood with neighbor identifiers (the
// standard LOCAL assumption), and the global parameters n and Δ that LOCAL
// algorithms conventionally know.
type NodeView struct {
	ID          int64
	Degree      int
	NeighborIDs []int64
	N           int
	MaxDegree   int
	Rand        *rand.Rand // node-private randomness; nil for deterministic runs
}

// Program is the per-node state machine. Round is invoked once per
// synchronous round with the messages received on each port (nil entries
// mean no message). The first invocation has ctx.Round() == 0 and an empty
// inbox: outputs committed there depend on purely local information.
type Program interface {
	Round(ctx *Context, inbox []Message)
}

// Algorithm constructs a fresh Program per node.
type Algorithm interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Node returns the program for a node with the given view.
	Node(view NodeView) Program
}

// OutputKind describes where a problem's outputs live, which determines the
// completion-time semantics of Definition 1.
type OutputKind int

const (
	// NodeOutputs is for problems labelling nodes (MIS, ruling sets,
	// coloring): T_v is v's own commit round and T_e = max(T_u, T_v).
	NodeOutputs OutputKind = iota + 1
	// EdgeOutputs is for problems labelling edges (matching, orientation):
	// T_e is the edge's commit round and T_v is the max over v's incident
	// edges.
	EdgeOutputs
)

// Context is the per-node handle passed to Program.Round. It is only valid
// during the call.
type Context struct {
	view   *NodeView
	round  int32
	outbox []Message
	sent   int64

	halted     bool
	nodeOut    any
	nodeSet    bool
	nodeRound  int32
	edgeOut    []Message // reused as []any per port
	edgeSet    []bool
	edgeRound  []int32
	commitErrs []error
}

// View returns the node's static local information.
func (c *Context) View() *NodeView { return c.view }

// Round returns the current round number (0 for the initial round).
func (c *Context) Round() int { return int(c.round) }

// Send queues a message on the given port for delivery next round. At most
// one message per port per round may be sent (bundle payloads into one
// message value instead); violations are reported as run errors.
func (c *Context) Send(port int, m Message) {
	if m == nil {
		c.commitErrs = append(c.commitErrs,
			fmt.Errorf("runtime: node %d sent nil on port %d in round %d", c.view.ID, port, c.round))
		return
	}
	if c.outbox[port] != nil {
		c.commitErrs = append(c.commitErrs,
			fmt.Errorf("runtime: node %d sent twice on port %d in round %d", c.view.ID, port, c.round))
		return
	}
	c.sent++
	c.outbox[port] = m
}

// Broadcast queues the same message on every port.
func (c *Context) Broadcast(m Message) {
	for p := range c.outbox {
		c.Send(p, m)
	}
}

// CommitNode irrevocably fixes this node's output at the current round.
// Committing twice is an error (reported by Run).
func (c *Context) CommitNode(out any) {
	if c.nodeSet {
		c.commitErrs = append(c.commitErrs,
			fmt.Errorf("runtime: node %d committed twice (round %d)", c.view.ID, c.round))
		return
	}
	c.nodeSet = true
	c.nodeOut = out
	c.nodeRound = c.round
}

// HasCommitted reports whether this node already committed its output.
func (c *Context) HasCommitted() bool { return c.nodeSet }

// CommitEdge irrevocably fixes the output of the edge on the given port at
// the current round. Either endpoint may commit an edge; if both do, the
// values must agree (checked by Run).
func (c *Context) CommitEdge(port int, out any) {
	if c.edgeSet[port] {
		c.commitErrs = append(c.commitErrs,
			fmt.Errorf("runtime: node %d committed port %d twice (round %d)", c.view.ID, port, c.round))
		return
	}
	c.edgeSet[port] = true
	c.edgeOut[port] = out
	c.edgeRound[port] = c.round
}

// Halt stops this node: its Round will not be called again, and messages
// addressed to it are dropped. Neighbors are not notified implicitly.
func (c *Context) Halt() { c.halted = true }

// Result is the outcome of a run.
type Result struct {
	// Rounds is the number of the last round executed (the final round in
	// which some node was still running). A run where every node halts in
	// the initial round has Rounds == 0.
	Rounds int
	// NodeCommit[v] is the round at which node v committed (-1 if never).
	NodeCommit []int32
	// EdgeCommit[e] is the earliest round at which either endpoint
	// committed edge e (-1 if never).
	EdgeCommit []int32
	// NodeHalt[v] is the round at which node v halted (-1 if it ran to the
	// round limit).
	NodeHalt []int32
	// NodeOut[v] is node v's committed output (nil if none).
	NodeOut []any
	// EdgeOut[e] is edge e's committed output (nil if none).
	EdgeOut []any
	// Messages is the total number of messages sent.
	Messages int64
}

// Config controls a run.
type Config struct {
	// IDs is the identifier assignment (len == g.N()). Required.
	IDs []int64
	// Seed seeds the per-node PRNGs; node v uses PCG(Seed, v-mixed).
	// Deterministic algorithms may ignore it.
	Seed uint64
	// MaxRounds aborts the run if some node is still live after this many
	// rounds. Zero selects a generous default based on n.
	MaxRounds int
}

// ErrRoundLimit is returned when a run exceeds its round budget.
var ErrRoundLimit = errors.New("runtime: round limit exceeded")

// DefaultMaxRounds returns the default round budget for an n-node graph.
func DefaultMaxRounds(n int) int {
	budget := 512
	for m := 2; m < n; m *= 2 {
		budget += 64
	}
	return budget
}

// Engine is a round executor bound to one graph. Its internal buffers
// (message double buffer, per-node contexts, arenas for neighbor IDs,
// outboxes and edge ledgers) are sized once from the graph and reused by
// every Run, so repeated trials on the same graph — the shape of every
// measurement loop — cost O(1) allocations per run plus whatever the
// algorithm's per-node programs allocate.
//
// An Engine is not safe for concurrent use; give each worker its own.
// Results returned by Run never alias engine buffers and stay valid after
// subsequent runs. NodeView values handed to programs (including their
// NeighborIDs) are invalidated by the next Run on the same engine.
type Engine struct {
	ex *execution
}

// NewEngine builds an engine for g. Setup is O(n + m).
func NewEngine(g *graph.Graph) *Engine {
	return &Engine{ex: newExecution(g)}
}

// Run executes alg under cfg on the engine's graph, reusing the engine's
// buffers. Semantics are identical to the package-level Run.
func (e *Engine) Run(alg Algorithm, cfg Config) (*Result, error) {
	if len(cfg.IDs) != e.ex.g.N() {
		return nil, fmt.Errorf("runtime: got %d ids for %d nodes", len(cfg.IDs), e.ex.g.N())
	}
	e.ex.reset(alg, cfg)
	return e.ex.runFrontier()
}

// Run executes alg on g under cfg and returns the measurement ledger. For
// repeated runs on the same graph, build an Engine once and reuse it.
func Run(g *graph.Graph, alg Algorithm, cfg Config) (*Result, error) {
	return NewEngine(g).Run(alg, cfg)
}
