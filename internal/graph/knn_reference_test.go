package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/features"
)

// knnReference is the unpruned per-query k-NN kernel: every query walks the
// full postings of its uncapped features, scores every candidate, and
// selects its row with topK. knn's pruned search must reproduce it bit for
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

// TestKNNMatchesReference pins the pruned search to the reference
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

// stressVecs draws n sparse vectors over nf features whose ids follow a
// Zipf law, so a few features sit on hundreds of vertices, as the PPMI
// vectors' common features do. Each vector mixes features of one of 40
// cluster prototypes with a few drawn at random, so rows fill with strong
// neighbours and the search's bounds have something to prune against.
// Values are non-negative or, with mixed set, of either sign. Every ninth
// vector duplicates an earlier one (exact ties at the K-th weight); a few
// are zero (ids present, all values 0) or empty; one carries a NaN value on
// rare features that other vectors share.
func stressVecs(rng *rand.Rand, n, nf int, mixed bool) []sparseVec {
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(nf-1))
	protos := make([][]int32, 40)
	for c := range protos {
		for j := 0; j < 25; j++ {
			protos[c] = append(protos[c], int32(zipf.Uint64()))
		}
	}
	vecs := make([]sparseVec, n)
	for i := range vecs {
		switch {
		case i > 0 && i%9 == 0:
			vecs[i] = vecs[rng.Intn(i)]
			continue
		case i%97 == 5:
			continue // empty
		}
		used := make(map[int32]bool)
		proto := protos[rng.Intn(len(protos))]
		for j := 0; j < 4+rng.Intn(12); j++ {
			used[proto[rng.Intn(len(proto))]] = true
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			used[int32(zipf.Uint64())] = true
		}
		ids := make([]int32, 0, len(used))
		for id := range used {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		vals := make([]float64, len(ids))
		var norm float64
		if i%89 != 3 { // otherwise a zero vector
			for j, id := range ids {
				// Rarer (higher) ids weigh more, as PMI does.
				vals[j] = rng.ExpFloat64() * (0.05 + math.Log1p(float64(id)/4))
				if mixed {
					vals[j] = rng.NormFloat64() * (0.05 + math.Log1p(float64(id)/4))
				}
				norm += vals[j] * vals[j]
			}
		}
		vecs[i] = sparseVec{ids: ids, vals: vals, norm: math.Sqrt(norm)}
	}
	// The NaN vector takes the two rarest features of vector 1.
	src := vecs[1].ids
	ids := append([]int32(nil), src[max(len(src)-2, 0):]...)
	vals := make([]float64, len(ids))
	vals[0] = math.NaN()
	vecs[n/2] = sparseVec{ids: ids, vals: vals, norm: math.NaN()}
	return vecs
}

// TestKNNPruningStress pins the pruned search to the reference kernel where
// its bounds decide rows: 1,500 Zipf-skewed vectors, non-negative and
// mixed-sign, with exact ties, zero, empty and NaN vectors, at K 1, 10 and
// n+5, MaxDF 0 and a small cap, and 1 to 3 workers. It also fails if
// pruning stops engaging: on the non-negative vectors at K 10, the search
// must visit under a quarter of the postings the reference walks.
func TestKNNPruningStress(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(41))
	for _, mixed := range []bool{false, true} {
		vecs := stressVecs(rng, n, 3000, mixed)
		postings := buildPostings(vecs)
		for _, maxDF := range []int{0, 40} {
			// The reference walks, per nonzero query, the full postings of
			// its uncapped features.
			var walk int64
			for _, v := range vecs {
				if v.norm == 0 {
					continue
				}
				for _, id := range v.ids {
					if df := len(postings[id]); maxDF == 0 || df <= maxDF {
						walk += int64(df)
					}
				}
			}
			for _, k := range []int{1, 10, n + 5} {
				want := knnReference(vecs, BuilderConfig{K: k, MaxDF: maxDF, Workers: 2})
				for _, workers := range []int{1, 2, 3} {
					cfg := BuilderConfig{K: k, MaxDF: maxDF, Workers: workers}
					got, st := knnSearch(vecs, cfg)
					tag := fmt.Sprintf("mixed=%v maxDF=%d K=%d workers=%d", mixed, maxDF, k, workers)
					assertRowsIdentical(t, tag, got, want)
					if !mixed && maxDF == 0 && k == 10 && 4*st.postings >= walk {
						t.Errorf("%s: visited %d of %d postings, want under a quarter", tag, st.postings, walk)
					}
				}
			}
		}
	}
}

// knnBenchCorpus is a 1,200-sentence BC2GM corpus (seed 3), the size the
// repository benchmark's pipeline builds.
func knnBenchCorpus() *corpus.Corpus {
	scfg := synth.DefaultConfig(synth.BC2GM, 3)
	scfg.Sentences = 1200
	return synth.NewGenerator(scfg).Generate()
}

// knnBenchVecs returns the PPMI vertex vectors of knnBenchCorpus.
func knnBenchVecs(b *testing.B) []sparseVec {
	b.Helper()
	vecs, _, _, _, _ := vertexVectors(knnBenchCorpus(), BuilderConfig{Extractor: features.NewExtractor(nil)})
	return vecs
}

// BenchmarkVertexVectors times graph.Build's pass before the k-NN search —
// the block-parallel feature extraction and counting per 3-gram, then the
// PPMI transform — on the corpus BenchmarkKNN's vectors come from, with
// Workers = GOMAXPROCS as Build defaults it (run with -cpu 1,2).
func BenchmarkVertexVectors(b *testing.B) {
	c := knnBenchCorpus()
	cfg := BuilderConfig{Extractor: features.NewExtractor(nil), Workers: runtime.GOMAXPROCS(0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vertexVectors(c, cfg)
	}
}

// BenchmarkKNN compares the reference kernel with knn's pruned search on
// the same vectors, K=10, GOMAXPROCS workers. The pruned search also
// reports the postings it visits and the candidates it scores exactly per
// query: if pruning stops engaging, these jump towards the reference's
// full walk long before the time does.
func BenchmarkKNN(b *testing.B) {
	vecs := knnBenchVecs(b)
	cfg := BuilderConfig{K: 10, Workers: runtime.GOMAXPROCS(0)}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			knnReference(vecs, cfg)
		}
	})
	b.Run("pruned", func(b *testing.B) {
		b.ReportAllocs()
		var st knnStats
		for i := 0; i < b.N; i++ {
			_, st = knnSearch(vecs, cfg)
		}
		b.ReportMetric(float64(st.postings)/float64(len(vecs)), "postings/query")
		b.ReportMetric(float64(st.scored)/float64(len(vecs)), "scored/query")
	})
}
