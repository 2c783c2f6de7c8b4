package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/tokenize"
)

// lshTestCorpus generates a synthetic corpus plus per-sentence tags for
// MIFeatures-mode configs.
func lshTestCorpus(seed int64, sentences int) (*corpus.Corpus, [][]corpus.Tag) {
	cfg := synth.DefaultConfig(synth.BC2GM, seed)
	cfg.Sentences = sentences
	c := synth.NewGenerator(cfg).Generate()
	tags := make([][]corpus.Tag, len(c.Sentences))
	for i, s := range c.Sentences {
		tags[i] = s.Tags
	}
	return c, tags
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

func TestLSHRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs := clusteredVecs(rng, 300, 10, 6)
	cfg := BuilderConfig{K: 5, Workers: 4}
	exact := knn(vecs, cfg)
	approx := knnLSH(vecs, cfg, LSHConfig{Bits: 10, Tables: 12, Seed: 3})
	r := Recall(exact, approx)
	if r < 0.8 {
		t.Errorf("LSH recall %.2f, want ≥ 0.8", r)
	}
	// Every returned list respects K and has descending weights.
	for vi, es := range approx {
		if len(es) > cfg.K {
			t.Fatalf("vertex %d has %d edges", vi, len(es))
		}
		for i := 1; i < len(es); i++ {
			if es[i-1].Weight < es[i].Weight {
				t.Fatal("not sorted")
			}
		}
	}
}

func TestLSHMoreTablesMoreRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vecs := clusteredVecs(rng, 200, 8, 5)
	cfg := BuilderConfig{K: 5, Workers: 2}
	exact := knn(vecs, cfg)
	r1 := Recall(exact, knnLSH(vecs, cfg, LSHConfig{Bits: 14, Tables: 1, Seed: 5}))
	r8 := Recall(exact, knnLSH(vecs, cfg, LSHConfig{Bits: 14, Tables: 16, Seed: 5}))
	if r8 < r1 {
		t.Errorf("recall with 16 tables (%.2f) below 1 table (%.2f)", r8, r1)
	}
}

// TestLSHMultiProbeRaisesRecall pins the multi-probe trade-off: probing
// the Hamming-1 buckets of every table must not lose recall, and on a
// deliberately under-tabled configuration it must gain some.
func TestLSHMultiProbeRaisesRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vecs := clusteredVecs(rng, 240, 8, 5)
	cfg := BuilderConfig{K: 5, Workers: 2}
	exact := knn(vecs, cfg)
	base := LSHConfig{Bits: 14, Tables: 2, Seed: 7}
	probed := base
	probed.MultiProbe = true
	r0 := Recall(exact, knnLSH(vecs, cfg, base))
	r1 := Recall(exact, knnLSH(vecs, cfg, probed))
	if r1 < r0 {
		t.Errorf("multi-probe recall %.3f below single-probe %.3f", r1, r0)
	}
	if r1 == r0 && r0 < 0.999 {
		t.Logf("multi-probe did not change recall (%.3f) — acceptable but unusual", r0)
	}
}

func TestBuildWithLSH(t *testing.T) {
	c := figure1Corpus()
	g, err := Build(c, BuilderConfig{K: 3, GraphMode: ModeLSH, LSH: LSHConfig{Bits: 6, Tables: 10, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != len(c.UniqueTrigrams()) {
		t.Error("vertex count mismatch")
	}
	if g.NumEdges() == 0 {
		t.Error("LSH build produced no edges")
	}
	// The strong similarity of the figure's example should survive LSH.
	v1 := g.Lookup(corpus.Trigram([]string{"tumor", "-", "1"}, 1))
	if v1 < 0 || len(g.Neighbors[v1]) == 0 {
		t.Error("key vertex lost its neighbours under LSH")
	}
}

// TestLSHRecallRegression is the recall@K bar across feature modes × K:
// for every vertex representation of Table III and both out-degrees, the
// LSH builder at its default setting must recover at least 90% of the
// exact k-NN edges on the synthetic corpus. This is the floor `make bench-lsh-smoke`
// gates CI on.
func TestLSHRecallRegression(t *testing.T) {
	corp, tags := lshTestCorpus(11, 80)
	modes := []struct {
		mode FeatureMode
		tags [][]corpus.Tag
	}{
		{AllFeatures, nil},
		{LexicalFeatures, nil},
		{MIFeatures, tags},
	}
	for _, m := range modes {
		for _, k := range []int{3, 10} {
			cfg := BuilderConfig{K: k, Mode: m.mode, MIThreshold: 0.0005, Tags: m.tags, Workers: 2}
			want, err := Build(corp, cfg)
			if err != nil {
				t.Fatalf("mode=%v K=%d: Build: %v", m.mode, k, err)
			}
			lcfg := cfg
			lcfg.GraphMode = ModeLSH
			lcfg.LSH = LSHConfig{MultiProbe: true, Seed: 9}
			got, err := Build(corp, lcfg)
			if err != nil {
				t.Fatalf("mode=%v K=%d: LSH Build: %v", m.mode, k, err)
			}
			r := Recall(want.Neighbors, got.Neighbors)
			if r < 0.9 {
				t.Errorf("mode=%v K=%d: LSH recall %.3f, want ≥ 0.9", m.mode, k, r)
			}
		}
	}
}

// TestLSHDeterministicAcrossWorkers is the determinism property the
// exact builder is held to: for a fixed seed and corpus, the serialized
// LSH graph must be byte-identical at every worker count.
func TestLSHDeterministicAcrossWorkers(t *testing.T) {
	corp, _ := lshTestCorpus(17, 60)
	serialize := func(workers int) []byte {
		cfg := BuilderConfig{K: 5, Workers: workers, GraphMode: ModeLSH,
			LSH: LSHConfig{Bits: 10, Tables: 8, MultiProbe: true, Seed: 21}}
		g, err := Build(corp, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("workers=%d: serialize: %v", workers, err)
		}
		return buf.Bytes()
	}
	want := serialize(1)
	for _, w := range []int{2, 8} {
		if got := serialize(w); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: serialized LSH graph differs from workers=1", w)
		}
	}
}

// TestLSHSameSeedSameGraph_DifferentSeedDiffers pins that the seed fully
// determines the construction: same seed twice is bit-identical, and a
// different seed produces a different (but still valid) graph on data
// where bucketing has freedom.
func TestLSHSeedDeterminism(t *testing.T) {
	corp, _ := lshTestCorpus(19, 50)
	build := func(seed int64) *Graph {
		g, err := Build(corp, BuilderConfig{K: 4, Workers: 2, GraphMode: ModeLSH,
			LSH: LSHConfig{Bits: 12, Tables: 4, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if !build(1).Equal(build(1)) {
		t.Error("same seed produced different graphs")
	}
}

// TestLSHConfigDefaultsAndValidate covers the tested defaults()/validate
// split: zero values are filled, and Bits > 32 — which would silently
// truncate into the uint32 signature — is rejected, both directly and
// through Build.
func TestLSHConfigDefaultsAndValidate(t *testing.T) {
	var c LSHConfig
	c.defaults()
	if c.Bits <= 0 || c.Bits > 32 {
		t.Errorf("default Bits = %d, want in (0, 32]", c.Bits)
	}
	if c.Tables <= 0 || c.MaxBucket <= 0 || c.Workers <= 0 {
		t.Errorf("defaults left zero knobs: %+v", c)
	}
	if err := c.validate(); err != nil {
		t.Errorf("defaulted config rejected: %v", err)
	}

	bad := LSHConfig{Bits: 33}
	if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "32") {
		t.Errorf("Bits=33 validate error = %v, want mention of the 32-bit bound", err)
	}

	// Boundary: exactly 32 bits is legal.
	ok := LSHConfig{Bits: 32}
	if err := ok.validate(); err != nil {
		t.Errorf("Bits=32 rejected: %v", err)
	}

	// Through Build: the error must surface, not truncate.
	c2 := figure1Corpus()
	if _, err := Build(c2, BuilderConfig{K: 3, GraphMode: ModeLSH, LSH: LSHConfig{Bits: 40}}); err == nil {
		t.Error("Build accepted Bits=40")
	}
	if _, err := Build(c2, BuilderConfig{K: 3, GraphMode: ModeLSH, LSH: LSHConfig{Bits: 32, Tables: 2, Seed: 1}}); err != nil {
		t.Errorf("Build rejected Bits=32: %v", err)
	}
}

func TestParseGraphMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want GraphMode
		err  bool
	}{
		{"exact", ModeExact, false},
		{"", ModeExact, false},
		{"lsh", ModeLSH, false},
		{"LSH", ModeLSH, false},
		{"annoy", 0, true},
	} {
		got, err := ParseGraphMode(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseGraphMode(%q) error = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseGraphMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if ModeExact.String() != "exact" || ModeLSH.String() != "lsh" {
		t.Errorf("GraphMode String round trip broken: %q %q", ModeExact, ModeLSH)
	}
}

// TestLSHCandidateAllocGuard pins the candidate-generation scratch to
// zero steady-state allocations: the epoch array, candidate buffer, and
// bucket CSR are all pre-sized, so a warm query allocates nothing.
func TestLSHCandidateAllocGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vecs := clusteredVecs(rng, 400, 10, 6)
	lsh := LSHConfig{Bits: 10, Tables: 8, MultiProbe: true, Seed: 3}
	lsh.defaults()
	ix := newLSHIndex(vecs, lsh)
	s := ix.newScratch(48)
	// Warm the candidate buffer to its high-water mark.
	for vi := range vecs {
		ix.candidates(int32(vi), s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for vi := 0; vi < 50; vi++ {
			ix.candidates(int32(vi), s)
		}
	})
	if allocs != 0 {
		t.Errorf("candidate generation allocates %.1f/run, want 0", allocs)
	}
}

// TestLSHNoSelfOrDuplicateNeighbors holds the LSH path to the invariant
// the exact path's epoch tracking guarantees: no self-edges, no
// duplicated neighbours, even with multi-probe re-visiting buckets.
func TestLSHNoSelfOrDuplicateNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vecs := clusteredVecs(rng, 150, 5, 4)
	out := knnLSH(vecs, BuilderConfig{K: 8}, LSHConfig{Bits: 6, Tables: 6, MultiProbe: true, Seed: 2, Workers: 3})
	for v, edges := range out {
		seen := make(map[int32]bool)
		for _, e := range edges {
			if int(e.To) == v {
				t.Fatalf("self-edge at vertex %d", v)
			}
			if seen[e.To] {
				t.Fatalf("duplicate neighbour %d at vertex %d: %v", e.To, v, edges)
			}
			seen[e.To] = true
		}
	}
}

func TestRecallEdgeCases(t *testing.T) {
	if r := Recall(nil, nil); r != 1 {
		t.Errorf("empty recall = %v, want 1", r)
	}
	exact := [][]Edge{{{To: 1}}, {{To: 0}}}
	if r := Recall(exact, [][]Edge{nil, nil}); r != 0 {
		t.Errorf("zero-overlap recall = %v", r)
	}
	if r := Recall(exact, exact); r != 1 {
		t.Errorf("self recall = %v", r)
	}
}

// TestInsertTopKEdgeShared covers the shared top-K fold the LSH rerank
// now uses (the former insertTopK duplicate was removed in favour of
// build.go's insertTopKEdge).
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

func BenchmarkLSHvsExact(b *testing.B) {
	// A mid-size corpus: the crossover where LSH wins grows with V.
	texts := make([]string, 0, 400)
	rng := rand.New(rand.NewSource(1))
	words := []string{"gene", "mutation", "expression", "patient", "tumor", "kinase",
		"pathway", "variant", "binding", "promoter", "receptor", "sample"}
	for i := 0; i < 400; i++ {
		n := 6 + rng.Intn(6)
		s := make([]string, n)
		for j := range s {
			s[j] = words[rng.Intn(len(words))] + fmt.Sprint(rng.Intn(30))
		}
		texts = append(texts, joinWords(s))
	}
	c := corpus.New()
	for i, t := range texts {
		c.Sentences = append(c.Sentences, &corpus.Sentence{
			ID: fmt.Sprint(i), Text: t, Tokens: tokenize.Sentence(t),
		})
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Build(c, BuilderConfig{K: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lsh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Build(c, BuilderConfig{K: 10, GraphMode: ModeLSH, LSH: LSHConfig{Seed: 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}
