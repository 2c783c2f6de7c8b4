package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/corpus/synth"
	"repro/internal/features"
)

// knnReference is the per-query k-NN kernel knn replaced: every query walks
// the full postings of its features (scoring each pair from both ends) and
// selects its row with topK. The pair-once search must reproduce it bit for
// bit.
func knnReference(vecs []sparseVec, cfg BuilderConfig) [][]Edge {
	n := len(vecs)
	postings := buildPostings(vecs)
	out := make([][]Edge, n)
	var wg sync.WaitGroup
	workers := cfg.Workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scores := make([]float64, n)
			seen := make([]int32, n)
			epoch := int32(0)
			touched := make([]int32, 0, 1024)
			for vi := w; vi < n; vi += workers {
				q := &vecs[vi]
				if q.norm == 0 {
					continue
				}
				epoch++
				touched = scoreInto(q, int32(vi), postings, cfg.MaxDF, scores, seen, epoch, touched[:0])
				out[vi] = topK(scores, touched, q.norm, vecs, cfg.K, nil)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// assertRowsIdentical fails unless got and want agree row for row: same
// nil-ness, same length, same targets and bit-equal weights.
func assertRowsIdentical(t *testing.T, tag string, got, want [][]Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got), len(want))
	}
	for v := range want {
		g, w := got[v], want[v]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			t.Fatalf("%s: row %d = %v (nil %v), want %v (nil %v)", tag, v, g, g == nil, w, w == nil)
		}
		for j := range w {
			if g[j].To != w[j].To || math.Float64bits(g[j].Weight) != math.Float64bits(w[j].Weight) {
				t.Fatalf("%s: row %d edge %d = %+v, want %+v", tag, v, j, g[j], w[j])
			}
		}
	}
}

// randomVecs draws n sparse vectors over nf features with mixed-sign
// values. Every fifth vector duplicates an earlier one (exact weight ties),
// and a few are zero (ids present, all values 0) or empty.
func randomVecs(rng *rand.Rand, n, nf int) []sparseVec {
	vecs := make([]sparseVec, n)
	for i := range vecs {
		switch {
		case i > 0 && i%5 == 0:
			vecs[i] = vecs[rng.Intn(i)]
			continue
		case i%13 == 7:
			continue // empty
		}
		used := make(map[int32]bool)
		for j := 0; j < 1+rng.Intn(8); j++ {
			used[int32(rng.Intn(nf))] = true
		}
		ids := make([]int32, 0, len(used))
		for id := range used {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		vals := make([]float64, len(ids))
		var norm float64
		if i%11 != 3 { // otherwise a zero vector
			for j := range vals {
				vals[j] = rng.NormFloat64()
				norm += vals[j] * vals[j]
			}
		}
		vecs[i] = sparseVec{ids: ids, vals: vals, norm: math.Sqrt(norm)}
	}
	return vecs
}

// TestKNNMatchesReference pins the pair-once search to the per-query
// kernel: identical rows (targets and weight bits) across worker counts,
// K up to beyond n, and the MaxDF cap, on random mixed-sign vectors with
// duplicates, zero and empty vectors, and on a BC2GM corpus build.
func TestKNNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 60} {
		vecs := randomVecs(rng, n, 12)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, k := range []int{1, 4, 10, n + 5} {
				for _, maxDF := range []int{0, 3} {
					cfg := BuilderConfig{K: k, MaxDF: maxDF, Workers: workers}
					tag := fmt.Sprintf("n=%d workers=%d K=%d maxDF=%d", n, workers, k, maxDF)
					assertRowsIdentical(t, tag, knn(vecs, cfg), knnReference(vecs, cfg))
				}
			}
		}
	}

	scfg := synth.DefaultConfig(synth.BC2GM, 5)
	scfg.Sentences = 600
	c := synth.NewGenerator(scfg).Generate()
	cfg := BuilderConfig{K: 10, Workers: 2}
	g, err := Build(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Extractor = features.NewExtractor(nil)
	vecs, _, _, _, _ := vertexVectors(c, cfg)
	assertRowsIdentical(t, "bc2gm-600 Build", g.Neighbors, knnReference(vecs, cfg))
}

// knnBenchVecs returns the PPMI vertex vectors of a 1,200-sentence BC2GM
// corpus (seed 3), the size the repository benchmark's pipeline builds.
func knnBenchVecs(b *testing.B) []sparseVec {
	b.Helper()
	scfg := synth.DefaultConfig(synth.BC2GM, 3)
	scfg.Sentences = 1200
	c := synth.NewGenerator(scfg).Generate()
	vecs, _, _, _, _ := vertexVectors(c, BuilderConfig{Extractor: features.NewExtractor(nil)})
	return vecs
}

// BenchmarkKNN compares the per-query reference kernel with the pair-once
// search on the same vectors, K=10, GOMAXPROCS workers.
func BenchmarkKNN(b *testing.B) {
	vecs := knnBenchVecs(b)
	cfg := BuilderConfig{K: 10, Workers: runtime.GOMAXPROCS(0)}
	for _, impl := range []struct {
		name string
		fn   func([]sparseVec, BuilderConfig) [][]Edge
	}{
		{"reference", knnReference},
		{"symmetric", knn},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.fn(vecs, cfg)
			}
		})
	}
}
