package mis

import (
	"avgloc/internal/alg/coloring"
	"avgloc/internal/runtime"
)

// Det is the deterministic MIS via coloring: Linial's O(Δ²)-coloring, the
// Kuhn–Wattenhofer reduction to Δ+1 colors, and a color-class sweep
// ([BEK15] shape). On cycles this is the classic Θ(log* n) algorithm whose
// node-averaged complexity Feuilloley [Feu20] proved is also Θ(log* n) for
// deterministic algorithms — the E10 contrast with Luby's O(1)-node-avg
// randomized behaviour on constant degree.
type Det struct{}

// Name implements runtime.Algorithm.
func (Det) Name() string { return "mis/det-coloring" }

// Node implements runtime.Algorithm.
func (Det) Node(view runtime.NodeView) runtime.Program {
	return runtime.BlockingProgram(view, detColoring)
}

func detColoring(pc *runtime.ProcContext) {
	view := pc.View()
	space := int64(view.N) * int64(view.N)
	if space < 4 {
		space = 4
	}
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
