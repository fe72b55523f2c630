package graph_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/registry"
)

// TestMarshalRoundTripFamilies builds every registry family at its default
// parameters and asserts the binary CSR image decodes to a deep-equal graph
// — same CSR arrays, ports, edge ids and cached max degree, not merely an
// isomorphic one. (chunk_test.go's warm-store suite separately proves the
// reloaded graphs produce identical RunChunkOpts bytes.)
func TestMarshalRoundTripFamilies(t *testing.T) {
	for _, fam := range registry.Graphs() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			g, err := fam.Build(registry.Values{}, rand.New(rand.NewPCG(7, 9)))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			data, err := g.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got graph.Graph
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(&got, g) {
				t.Fatalf("round-trip not deep-equal: got %v, want %v", &got, g)
			}
			// A second marshal of the decoded graph must be byte-identical —
			// the image is canonical, so disk checksums compose with it.
			data2, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !reflect.DeepEqual(data2, data) {
				t.Fatalf("re-marshal differs from original image")
			}
		})
	}
}

// TestMarshalRoundTripParallelEdges pins the encoding on a multigraph: the
// kmw lifts produce parallel edges, and twin-arc pairing is exactly the
// state a naive adjacency round-trip would lose.
func TestMarshalRoundTripParallelEdges(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // parallel to edge 0, reversed insertion order
	b.AddEdge(1, 2)
	g := b.MustBuild()
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got graph.Graph
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&got, g) {
		t.Fatalf("round-trip not deep-equal: got %v, want %v", &got, g)
	}
}

// TestMarshalRoundTripEmpty covers the degenerate shapes: no nodes, and
// nodes without edges.
func TestMarshalRoundTripEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := graph.NewBuilder(n).MustBuild()
		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		var got graph.Graph
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if got.N() != n || got.M() != 0 {
			t.Fatalf("n=%d: decoded %v", n, &got)
		}
	}
}

// TestUnmarshalRejectsDamage flips or truncates bytes across the image and
// asserts decoding fails rather than returning a plausible wrong graph. The
// store's checksum layer catches corruption first; this proves the decoder
// is safe even without it.
func TestUnmarshalRejectsDamage(t *testing.T) {
	fam, err := registry.FindGraph("regular")
	if err != nil {
		t.Fatal(err)
	}
	g, err := fam.Build(registry.Values{"n": 64, "d": 4}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, img []byte) {
		var got graph.Graph
		if err := got.UnmarshalBinary(img); err == nil {
			t.Errorf("%s: decode accepted damaged image", name)
		}
	}
	check("empty", nil)
	check("bad magic", append([]byte("wrongg"), data[6:]...))
	ver := append([]byte(nil), data...)
	ver[6] ^= 0xFF
	check("bad version", ver)
	check("truncated header", data[:10])
	check("truncated payload", data[:len(data)-3])
	check("extended payload", append(append([]byte(nil), data...), 0, 0, 0, 0))
	// Flip one byte in each region of the payload: counts, offsets, arcs.
	for _, off := range []int{8, 40, len(data)/2 + 1, len(data) - 2} {
		img := append([]byte(nil), data...)
		img[off] ^= 0x55
		check("bit flip", img)
	}
}
