package runtime

import "iter"

// Blocking-style node programs: instead of hand-writing a state machine
// whose Round method dispatches on the round number, a node program is
// sequential code that calls Step() to end the current round and receive
// the next round's inbox. This is the natural Go rendering of a synchronous
// message-passing node and is what the multi-phase deterministic algorithms
// (Theorems 3, 5 and 6) are written in.
//
// The adapter below runs each Proc as an iter.Pull coroutine: the engine's
// Round call resumes it with the new inbox, and Step yields back to the
// engine. A coroutine switch hands the thread directly to the other side
// without passing through the scheduler's run queues, so a blocking round
// costs a pair of direct switches rather than two channel handoffs.

// Proc is the body of a blocking node program. It must only interact with
// the simulation through pc, and returns when the node is done (the node
// halts automatically).
type Proc func(pc *ProcContext)

// ProcContext is the blocking-style counterpart of Context.
type ProcContext struct {
	view  *NodeView
	ctx   *Context
	in    []Message
	yield func(struct{}) bool
}

// View returns the node's static local information.
func (pc *ProcContext) View() *NodeView { return pc.view }

// Round returns the current round number.
func (pc *ProcContext) Round() int { return pc.ctx.Round() }

// Inbox returns the messages received at the start of the current round.
// Index by port; nil entries mean no message.
func (pc *ProcContext) Inbox() []Message { return pc.in }

// Send queues a message on the given port for delivery next round.
func (pc *ProcContext) Send(port int, m Message) { pc.ctx.Send(port, m) }

// Broadcast queues the same message on every port.
func (pc *ProcContext) Broadcast(m Message) { pc.ctx.Broadcast(m) }

// CommitNode fixes the node output at the current round.
func (pc *ProcContext) CommitNode(out any) { pc.ctx.CommitNode(out) }

// HasCommitted reports whether the node output is already fixed.
func (pc *ProcContext) HasCommitted() bool { return pc.ctx.HasCommitted() }

// CommitEdge fixes the output of the edge on the given port.
func (pc *ProcContext) CommitEdge(port int, out any) { pc.ctx.CommitEdge(port, out) }

// Step ends the current round (delivering everything queued with Send) and
// blocks until the next round begins, returning the new inbox.
func (pc *ProcContext) Step() []Message {
	if !pc.yield(struct{}{}) {
		// The engine stopped the coroutine (round limit or abort): unwind
		// the proc.
		panic(procKilled{})
	}
	return pc.in
}

// StepN calls Step n times, discarding inboxes; a convenience for idle
// waiting inside multi-phase protocols.
func (pc *ProcContext) StepN(n int) {
	for i := 0; i < n; i++ {
		pc.Step()
	}
}

type procKilled struct{}

// procProgram adapts a Proc to the engine's Program interface. The
// coroutine is created lazily on the first Round.
type procProgram struct {
	f    Proc
	view NodeView
	pc   ProcContext
	next func() (struct{}, bool)
	stop func()
}

var _ Program = (*procProgram)(nil)
var _ stopper = (*procProgram)(nil)

func (p *procProgram) Round(ctx *Context, inbox []Message) {
	if p.next == nil {
		p.pc.view = &p.view
		p.next, p.stop = iter.Pull(p.body)
	}
	p.pc.ctx = ctx
	p.pc.in = inbox
	if _, running := p.next(); !running {
		ctx.Halt()
	}
}

// body is the coroutine. It turns the procKilled unwind of a stopped proc
// into a normal return; any other panic escapes, and iter.Pull re-raises
// it from next on the engine's goroutine.
func (p *procProgram) body(yield func(struct{}) bool) {
	p.pc.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	p.f(&p.pc)
}

// Stop unwinds a proc that is still suspended in Step; called by the engine
// after every run. It is a no-op for procs that never started or finished.
func (p *procProgram) Stop() {
	if p.stop != nil {
		p.stop()
	}
}

// stopper is implemented by programs needing cleanup when a run aborts.
type stopper interface{ Stop() }

// BlockingProgram returns the Program that runs proc as the blocking node
// program of the node with the given view. Algorithms whose Node method can
// build the proc directly call this instead of going through NewBlocking.
func BlockingProgram(view NodeView, proc Proc) Program {
	return &procProgram{f: proc, view: view}
}

// blockingAlg wraps a Proc factory into an Algorithm.
type blockingAlg struct {
	name string
	f    func(view NodeView) Proc
}

func (a blockingAlg) Name() string { return a.name }

func (a blockingAlg) Node(view NodeView) Program {
	return BlockingProgram(view, a.f(view))
}

// NewBlocking builds an Algorithm from a blocking-style node program
// factory. The factory may capture per-node state; the returned Proc runs
// once per node.
func NewBlocking(name string, f func(view NodeView) Proc) Algorithm {
	return blockingAlg{name: name, f: f}
}
