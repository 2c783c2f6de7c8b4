package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/features"
)

func TestMIFeatureCountMonotone(t *testing.T) {
	c := figure1Corpus()
	tags := make([][]corpus.Tag, len(c.Sentences))
	for i, s := range c.Sentences {
		tags[i] = make([]corpus.Tag, len(s.Tokens))
		words := s.Words()
		for j := range words {
			if words[j] == "wilms" {
				tags[i][j] = corpus.B
			} else {
				tags[i][j] = corpus.O
			}
		}
	}
	var prev int
	first := true
	for _, th := range []float64{0, 0.001, 0.01, 0.1, 1} {
		n, err := MIFeatureCount(c, BuilderConfig{Mode: MIFeatures, MIThreshold: th, Tags: tags})
		if err != nil {
			t.Fatal(err)
		}
		if !first && n > prev {
			t.Errorf("feature count grew with threshold: %d at %g after %d", n, th, prev)
		}
		prev, first = n, false
	}
	if _, err := MIFeatureCount(c, BuilderConfig{}); err == nil {
		t.Error("want error without tags")
	}
}

func TestCosineBounds(t *testing.T) {
	// Property: all k-NN edge weights are valid cosines of non-negative
	// vectors: within [0, 1] (PPMI vectors are non-negative).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vecs := clusteredVecs(rng, 40, 5, 4)
		for _, es := range knn(vecs, BuilderConfig{K: 6, Workers: 2}) {
			for _, e := range es {
				if e.Weight < -1e-12 || e.Weight > 1+1e-12 || math.IsNaN(e.Weight) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSelfSimilarityExcluded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vecs := clusteredVecs(rng, 30, 3, 4)
	for vi, es := range knn(vecs, BuilderConfig{K: 5, Workers: 1}) {
		for _, e := range es {
			if int(e.To) == vi {
				t.Fatalf("vertex %d is its own neighbour", vi)
			}
		}
	}
}

func TestIdenticalVectorsAreNearestNeighbours(t *testing.T) {
	// Two vertices with identical vectors must be each other's top
	// neighbour with cosine 1.
	mk := func(ids []int32, vals []float64) sparseVec {
		var n float64
		for _, v := range vals {
			n += v * v
		}
		return sparseVec{ids: ids, vals: vals, norm: math.Sqrt(n)}
	}
	vecs := []sparseVec{
		mk([]int32{0, 1}, []float64{1, 2}),
		mk([]int32{0, 1}, []float64{1, 2}),
		mk([]int32{5}, []float64{3}),
	}
	nb := knn(vecs, BuilderConfig{K: 2, Workers: 1})
	if len(nb[0]) == 0 || nb[0][0].To != 1 || math.Abs(nb[0][0].Weight-1) > 1e-12 {
		t.Errorf("neighbours of 0: %+v", nb[0])
	}
	if len(nb[1]) == 0 || nb[1][0].To != 0 {
		t.Errorf("neighbours of 1: %+v", nb[1])
	}
	// Vertex 2 shares no features: it must have no neighbours at all.
	if len(nb[2]) != 0 {
		t.Errorf("disjoint vertex has neighbours: %+v", nb[2])
	}
}

func TestValueOf(t *testing.T) {
	v := sparseVec{ids: []int32{2, 5, 9}, vals: []float64{0.2, 0.5, 0.9}}
	cases := []struct {
		id   int32
		want float64
	}{{2, 0.2}, {5, 0.5}, {9, 0.9}, {0, 0}, {3, 0}, {10, 0}}
	for _, c := range cases {
		if got := valueOf(&v, c.id); got != c.want {
			t.Errorf("valueOf(%d) = %g, want %g", c.id, got, c.want)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	c := figure1Corpus()
	a, err := Build(c, BuilderConfig{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(c, BuilderConfig{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumVertices() != b.NumVertices() {
		t.Fatal("vertex counts differ")
	}
	for v := range a.Neighbors {
		ea, eb := a.Neighbors[v], b.Neighbors[v]
		if len(ea) != len(eb) {
			t.Fatalf("vertex %d: %d vs %d neighbours under different worker counts", v, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j].To != eb[j].To || math.Abs(ea[j].Weight-eb[j].Weight) > 1e-12 {
				t.Fatalf("vertex %d neighbour %d differs across worker counts", v, j)
			}
		}
	}
}

func TestPPMIVectorsNonNegativeSorted(t *testing.T) {
	c := figure1Corpus()
	vecs, verts, _, _, _ := vertexVectors(c, BuilderConfig{
		K: 5, Mode: AllFeatures, Extractor: features.NewExtractor(nil),
	})
	if len(vecs) != len(verts) {
		t.Fatal("length mismatch")
	}
	for _, v := range vecs {
		if !sort.SliceIsSorted(v.ids, func(a, b int) bool { return v.ids[a] < v.ids[b] }) {
			t.Fatal("feature ids not sorted")
		}
		for _, val := range v.vals {
			if val <= 0 {
				t.Fatal("non-positive PPMI value kept")
			}
		}
	}
}

// clusteredVecs builds sparse vectors in c latent clusters: members of a
// cluster share most feature mass, so true nearest neighbours are
// cluster-mates.
func clusteredVecs(rng *rand.Rand, n, clusters, featPerCluster int) []sparseVec {
	vecs := make([]sparseVec, n)
	for i := range vecs {
		cl := i % clusters
		base := int32(cl * featPerCluster)
		ids := make([]int32, 0, featPerCluster+2)
		vals := make([]float64, 0, featPerCluster+2)
		for f := 0; f < featPerCluster; f++ {
			ids = append(ids, base+int32(f))
			vals = append(vals, 1+rng.Float64()*0.2)
		}
		// A couple of noise features.
		noise := int32(clusters*featPerCluster) + int32(rng.Intn(50))
		ids = append(ids, noise)
		vals = append(vals, 0.3)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		var norm float64
		for _, v := range vals {
			norm += v * v
		}
		vecs[i] = sparseVec{ids: ids, vals: vals, norm: math.Sqrt(norm)}
	}
	return vecs
}

// TestInsertTopKEdgeShared covers insertTopKEdge, the top-K fold the
// pruned search and the Updater's batch topK pass share.
func TestInsertTopKEdgeShared(t *testing.T) {
	var edges []Edge
	for _, w := range []float64{0.3, 0.9, 0.1, 0.7, 0.5} {
		edges = insertTopKEdge(edges, Edge{To: int32(w * 10), Weight: w}, 3, nil)
	}
	if len(edges) != 3 {
		t.Fatalf("len = %d", len(edges))
	}
	want := []float64{0.9, 0.7, 0.5}
	for i, w := range want {
		if edges[i].Weight != w {
			t.Errorf("edges[%d].Weight = %v, want %v", i, edges[i].Weight, w)
		}
	}
}
