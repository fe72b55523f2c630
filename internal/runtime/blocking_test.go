package runtime_test

import (
	"errors"
	goruntime "runtime"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/runtime"
)

// blockingFlood is floodMax written in the blocking style.
func blockingFlood(k int) runtime.Algorithm {
	return runtime.NewBlocking("test/blockingflood", func(view runtime.NodeView) runtime.Proc {
		return func(pc *runtime.ProcContext) {
			best := view.ID
			for r := 0; r < k; r++ {
				pc.Broadcast(best)
				for _, m := range pc.Step() {
					if m == nil {
						continue
					}
					if id := m.(int64); id > best {
						best = id
					}
				}
			}
			pc.CommitNode(best)
		}
	})
}

func TestBlockingFloodMatchesStateMachine(t *testing.T) {
	n, k := 12, 3
	g := graph.Path(n)
	assignment := ids.Sequential(n)
	a := run(t, g, floodMax{k: k}, runtime.Config{IDs: assignment})
	b := run(t, g, blockingFlood(k), runtime.Config{IDs: assignment})
	for v := 0; v < n; v++ {
		if a.NodeOut[v] != b.NodeOut[v] {
			t.Fatalf("node %d: %v vs %v", v, a.NodeOut[v], b.NodeOut[v])
		}
		if a.NodeCommit[v] != b.NodeCommit[v] {
			t.Fatalf("node %d commit: %d vs %d", v, a.NodeCommit[v], b.NodeCommit[v])
		}
	}
}

func TestBlockingAbortUnwindsGoroutines(t *testing.T) {
	// A blocking program that never finishes must be killed cleanly when
	// the round limit hits: Run returns (no deadlock) and every proc
	// coroutine has exited by then, so the goroutine count is back at its
	// baseline. (It may fall below it: a goroutine left over from an
	// earlier test can exit meanwhile.)
	alg := runtime.NewBlocking("test/spin", func(runtime.NodeView) runtime.Proc {
		return func(pc *runtime.ProcContext) {
			for {
				pc.Step()
			}
		}
	})
	g := graph.Cycle(50)
	base := goruntime.NumGoroutine()
	for i := 0; i < 2; i++ {
		_, err := runtime.Run(g, alg, runtime.Config{IDs: ids.Sequential(g.N()), MaxRounds: 5})
		if !errors.Is(err, runtime.ErrRoundLimit) {
			t.Fatalf("want ErrRoundLimit, got %v", err)
		}
		if n := goruntime.NumGoroutine(); n > base {
			t.Fatalf("run %d: %d goroutines after abort, baseline %d", i, n, base)
		}
	}
}

type procBoom struct{ id int64 }

func TestBlockingPanicSurfacesFromRun(t *testing.T) {
	// A real panic inside a proc must reach runtime.Run's caller on the
	// caller's own goroutine with its original value (it is not mistaken
	// for the engine's unwind of a stopped proc), and the other procs,
	// still suspended in Step, must be unwound.
	alg := runtime.NewBlocking("test/panic", func(view runtime.NodeView) runtime.Proc {
		return func(pc *runtime.ProcContext) {
			pc.Step()
			if view.ID == 3 {
				panic(procBoom{id: view.ID})
			}
			pc.StepN(10)
		}
	})
	g := graph.Cycle(8)
	base := goruntime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		_, err := runtime.Run(g, alg, runtime.Config{IDs: ids.Sequential(g.N())})
		t.Errorf("Run returned (err %v) instead of panicking", err)
	}()
	if b, ok := got.(procBoom); !ok || b.id != 3 {
		t.Fatalf("recovered %#v, want procBoom{id: 3}", got)
	}
	if n := goruntime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panic, baseline %d", n, base)
	}
}
