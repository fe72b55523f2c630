// Command ctgen regenerates the structural artifacts of Section 4:
// Figure 1's cluster tree skeletons CT_0..CT_k, the derived base graphs
// G_k(β) with their Lemma 13 statistics, and random-lift girth statistics
// (Lemma 12 / Corollary 15).
//
// The generated construction is also named in the registry vocabulary
// ("kmw" and "kmw-matching" graph families), and ctgen prints the exact
// scenario-spec JSON for it — paste-able into cmd/localsim, a scenario
// submission to avgserve, or a campaign file. With -json the whole output
// becomes one machine-readable stats document instead of text.
//
// Usage:
//
//	ctgen -k 2 -beta 4 -q 4
//	ctgen -k 1 -beta 4 -q 8 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"

	"avgloc/internal/graph"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/clustertree"
	"avgloc/internal/lb/lift"
	"avgloc/internal/registry"
	"avgloc/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ctgen:", err)
		os.Exit(1)
	}
}

// graphStats summarizes one constructed graph for the -json document.
type graphStats struct {
	Nodes     int `json:"nodes"`
	Edges     int `json:"edges"`
	MaxDegree int `json:"max_degree"`
	Girth     int `json:"girth"`
}

func statsOf(g *graph.Graph) graphStats {
	return graphStats{Nodes: g.N(), Edges: g.M(), MaxDegree: g.MaxDegree(), Girth: g.Girth()}
}

// statsDoc is the -json output: construction parameters, paste-able
// scenario specs in registry vocabulary, and the measured statistics.
type statsDoc struct {
	K    int    `json:"k"`
	Beta int    `json:"beta"`
	Q    int    `json:"q"`
	Seed uint64 `json:"seed"`
	// Spec/MatchingSpec are scenario fragments for the "kmw" and
	// "kmw-matching" registry families; absent when the parameters fall
	// outside the families' declared bounds.
	Spec         *scenario.Spec `json:"spec,omitempty"`
	MatchingSpec *scenario.Spec `json:"matching_spec,omitempty"`
	SpecNote     string         `json:"spec_note,omitempty"`
	Base         graphStats     `json:"base"`
	// IndependentSetSize is |S(c0)|, the Theorem 16 independent set.
	IndependentSetSize int         `json:"independent_set_size"`
	DegreeBound        int         `json:"degree_bound"` // Lemma 13: 2β^{k+1}
	Lift               *graphStats `json:"lift,omitempty"`
	// ShortCycleFrac[i] is the fraction of lift nodes on a cycle of
	// length ≤ the i-th probed bound (3, 5, 2k+1).
	ShortCycleBounds []int     `json:"short_cycle_bounds,omitempty"`
	ShortCycleFrac   []float64 `json:"short_cycle_frac,omitempty"`
}

// registrySpec renders the construction as a normalized scenario spec of
// the named registry family, proving the parameters are accepted there.
func registrySpec(family string, k, beta, q int, seed uint64) (*scenario.Spec, error) {
	fam, err := registry.FindGraph(family)
	if err != nil {
		return nil, err
	}
	params := registry.Values{"k": float64(k), "beta": float64(beta), "q": float64(q)}
	if _, err := fam.Normalize(params); err != nil {
		return nil, err
	}
	return &scenario.Spec{Graph: family, Params: params, Seed: seed}, nil
}

func run() error {
	k := flag.Int("k", 2, "cluster tree parameter k")
	beta := flag.Int("beta", 4, "cluster size parameter β (even, >= 4)")
	q := flag.Int("q", 4, "random lift order (0 disables the lift)")
	seed := flag.Uint64("seed", 1, "lift seed")
	jsonOut := flag.Bool("json", false, "emit one machine-readable stats document")
	flag.Parse()

	doc := statsDoc{K: *k, Beta: *beta, Q: *q, Seed: *seed}

	if !*jsonOut {
		fmt.Println("Cluster tree skeletons (Figure 1):")
		for kk := 0; kk <= *k; kk++ {
			s, err := clustertree.Build(kk)
			if err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return fmt.Errorf("CT_%d invalid: %w", kk, err)
			}
			fmt.Println(s)
		}
	}

	inst, err := basegraph.Build(basegraph.Params{K: *k, Beta: *beta})
	if err != nil {
		return err
	}
	if err := inst.Validate(); err != nil {
		return fmt.Errorf("base graph invalid: %w", err)
	}
	doc.Base = statsOf(inst.G)
	doc.IndependentSetSize = len(inst.Clusters[0])
	doc.DegreeBound = 2 * pow(*beta, *k+1)
	if !*jsonOut {
		fmt.Printf("Base graph G_%d(β=%d): %v\n", *k, *beta, inst.G)
		fmt.Printf("  |S(c0)| = %d (independent set, %.1f%% of all nodes)\n",
			len(inst.Clusters[0]), 100*float64(len(inst.Clusters[0]))/float64(inst.G.N()))
		fmt.Printf("  max degree %d (Lemma 13 bound 2β^{k+1} = %d)\n",
			inst.G.MaxDegree(), doc.DegreeBound)
		for v := range inst.Clusters {
			if v > 4 {
				fmt.Printf("  ... %d more clusters\n", len(inst.Clusters)-v)
				break
			}
			fmt.Printf("  cluster %d: %d nodes, α ≤ %d\n", v, len(inst.Clusters[v]), inst.IndependenceBound(v))
		}
	}

	if *q > 0 {
		rng := rand.New(rand.NewPCG(*seed, 2))
		lifted, err := lift.Random(inst.G, *q, rng)
		if err != nil {
			return err
		}
		if err := lift.IsCoveringMap(inst.G, lifted, *q); err != nil {
			return fmt.Errorf("lift invalid: %w", err)
		}
		for _, l := range []int{3, 5, 2*(*k) + 1} {
			if !slices.Contains(doc.ShortCycleBounds, l) {
				doc.ShortCycleBounds = append(doc.ShortCycleBounds, l)
			}
		}
		// One fused scan yields every short-cycle fraction and the girth.
		cs := lift.ScanCycles(lifted, doc.ShortCycleBounds...)
		doc.ShortCycleFrac = cs.ShortFrac
		doc.Lift = &graphStats{Nodes: lifted.N(), Edges: lifted.M(), MaxDegree: lifted.MaxDegree(), Girth: cs.Girth}
		if !*jsonOut {
			fmt.Printf("Random lift of order %d: %v\n", *q, lifted)
			for i, l := range doc.ShortCycleBounds {
				fmt.Printf("  fraction of nodes on a cycle of length <= %d: %.3f\n", l, doc.ShortCycleFrac[i])
			}
			fmt.Printf("  girth: %d (base graph girth: %d)\n", doc.Lift.Girth, doc.Base.Girth)
		}

		// Name the construction in registry vocabulary: the exact spec
		// fragments that reproduce it through localsim, avgserve or a
		// campaign file.
		spec, err := registrySpec("kmw", *k, *beta, *q, *seed)
		if err != nil {
			doc.SpecNote = fmt.Sprintf("outside registry bounds: %v", err)
		} else {
			doc.Spec = spec
			doc.MatchingSpec, _ = registrySpec("kmw-matching", *k, *beta, *q, *seed)
		}
		if !*jsonOut {
			if doc.Spec != nil {
				render := func(s *scenario.Spec) string {
					b, err := json.Marshal(s)
					if err != nil {
						return fmt.Sprintf("%v", err)
					}
					return string(b)
				}
				fmt.Println("Registry vocabulary (paste into a scenario or campaign spec):")
				fmt.Printf("  lifted graph:      %s\n", render(doc.Spec))
				if doc.MatchingSpec != nil {
					fmt.Printf("  doubled matching:  %s\n", render(doc.MatchingSpec))
				}
			} else {
				fmt.Printf("Registry vocabulary: %s\n", doc.SpecNote)
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}

func pow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}
