// Macro-benchmarks: one per table and figure of the paper's evaluation
// section, plus scaling benches for the complexity claims of §II-E and
// ablation benches for the design choices called out in DESIGN.md.
//
// These are end-to-end experiment regenerations, so a single iteration
// dominates; `go test -bench=.` runs each once at a reduced scale. Use
// cmd/benchtables for larger scales and nicer rendering.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/graphner"
	"repro/internal/propagate"
)

// benchScale keeps the full bench suite within minutes.
var benchScale = experiments.Scale{
	Name: "bench", Sentences: 1000, CRFIterations: 25, CRFOrder: crf.Order1,
	NeuralEpochs: 6, NeuralSentences: 400, SigfRepetitions: 1000,
	BrownClusters: 8, BrownMaxWords: 250, W2VDim: 8,
}

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns the process-wide experiment environment; benchmarks run
// sequentially, so sharing cached corpora/systems across them is safe and
// mirrors how cmd/benchtables amortizes work.
func env() *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(benchScale, 7, nil)
	})
	return benchEnv
}

func BenchmarkTable1_BC2GM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := env().Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*tab.Rows[len(tab.Rows)-1].Metrics.F1, "GraphNER-F%")
	}
}

func BenchmarkTable2_AML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := env().Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*tab.Rows[len(tab.Rows)-1].Metrics.F1, "GraphNER-F%")
	}
}

func BenchmarkTable3_FeatureSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := env().Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4_CrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, err := env().Table4(synth.BC2GM, experiments.BANNER, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*grid[0].F1, "bestCV-F%")
	}
}

func BenchmarkTable5_Significance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hs, err := env().Table5()
		if err != nil {
			b.Fatal(err)
		}
		if len(hs) != 8 {
			b.Fatalf("got %d hypotheses", len(hs))
		}
	}
}

func BenchmarkFig2_TimeCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := env().Figure2([]int{7, 5, 3}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 3 {
			b.Fatal("missing points")
		}
	}
}

func BenchmarkFig3_Influence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := env().Figure3(synth.BC2GM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_UpsetAML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := env().UpsetFigure(synth.AML); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_UpsetBC2GM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := env().UpsetFigure(synth.BC2GM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := env().GraphStatistics(synth.BC2GM)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*st.PositiveFraction, "positive%")
	}
}

func BenchmarkExtension_AbundantUnlabelled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := env().AbundantUnlabelled(synth.BC2GM, 800)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.WithExtra.F1, "withExtra-F%")
		b.ReportMetric(100*res.Transductive.F1, "transductive-F%")
	}
}

// Scaling benches for the complexity claims of §II-E.

// BenchmarkScaling_GraphConstruction exercises the O(Nf + V²FK) claim:
// build time versus corpus size.
func BenchmarkScaling_GraphConstruction(b *testing.B) {
	for _, n := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("sentences=%d", n), func(b *testing.B) {
			cfg := synth.DefaultConfig(synth.BC2GM, 5)
			cfg.Sentences = n
			c := synth.NewGenerator(cfg).Generate()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := graph.Build(c, graph.BuilderConfig{K: 10})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(g.NumVertices()), "vertices")
			}
		})
	}
}

// BenchmarkScaling_Propagation exercises the O(V·K·#iterations) claim.
func BenchmarkScaling_Propagation(b *testing.B) {
	cfg := synth.DefaultConfig(synth.BC2GM, 5)
	cfg.Sentences = 1000
	c := synth.NewGenerator(cfg).Generate()
	g, err := graph.Build(c, graph.BuilderConfig{K: 10})
	if err != nil {
		b.Fatal(err)
	}
	refs := graphner.ReferenceDistributions(c)
	xref := make([][]float64, g.NumVertices())
	labelled := make([]bool, g.NumVertices())
	for v, ng := range g.Vertices {
		if d, ok := refs[ng]; ok {
			xref[v], labelled[v] = d, true
		}
	}
	for _, iters := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("iterations=%d", iters), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				X := make([][]float64, g.NumVertices())
				if _, err := propagate.Run(g, X, xref, labelled, propagate.Config{
					Mu: 1e-6, Nu: 1e-6, Iterations: iters,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaling_ReferenceDistributions exercises the O(N_l + V_l)
// added-training-cost claim.
func BenchmarkScaling_ReferenceDistributions(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("sentences=%d", n), func(b *testing.B) {
			cfg := synth.DefaultConfig(synth.BC2GM, 5)
			cfg.Sentences = n
			c := synth.NewGenerator(cfg).Generate()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graphner.ReferenceDistributions(c)
			}
		})
	}
}

// Ablation benches for the design choices in DESIGN.md.

func ablationCorpora(n int) (*corpus.Corpus, *corpus.Corpus) {
	cfg := synth.DefaultConfig(synth.BC2GM, 9)
	cfg.Sentences = n
	return synth.GenerateSplit(cfg)
}

// BenchmarkAblation_CRFOrder compares order-1 and order-2 training cost
// and reports decoded F.
func BenchmarkAblation_CRFOrder(b *testing.B) {
	train, test := ablationCorpora(600)
	for _, order := range []crf.Order{crf.Order1, crf.Order2} {
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := graphner.Default()
				cfg.Order = order
				cfg.CRFIterations = 25
				sys, err := graphner.Train(train, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiments.Score(test, sys.BaselineTags(test))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Metrics().F1, "F%")
			}
		})
	}
}

// BenchmarkAblation_TransductiveVsInductive compares the paper's single
// transductive pass against the Subramanya-style self-training loop.
func BenchmarkAblation_TransductiveVsInductive(b *testing.B) {
	train, test := ablationCorpora(500)
	cfg := graphner.Default()
	cfg.Order = crf.Order1
	cfg.CRFIterations = 20
	cfg.K = 5
	b.Run("transductive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := graphner.Train(train, cfg)
			if err != nil {
				b.Fatal(err)
			}
			out, err := sys.Test(test)
			if err != nil {
				b.Fatal(err)
			}
			res, err := experiments.Score(test, out.Tags)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.Metrics().F1, "F%")
		}
	})
	b.Run("inductive-3rounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rounds, err := graphner.Inductive(train, test.StripLabels(), cfg, 3)
			if err != nil {
				b.Fatal(err)
			}
			out := rounds[len(rounds)-1].Output
			res, err := experiments.Score(test, out.Tags)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.Metrics().F1, "F%")
		}
	})
}

// BenchmarkAblation_KNNMaxDF measures the inverted-index pruning lever of
// graph construction, and what it costs in fidelity: same_rows is the
// share of rows whose neighbour set equals the uncapped (MaxDF=0) graph's.
// Every row has K edges either way, so the edge count alone cannot tell.
func BenchmarkAblation_KNNMaxDF(b *testing.B) {
	cfg := synth.DefaultConfig(synth.BC2GM, 5)
	cfg.Sentences = 600
	c := synth.NewGenerator(cfg).Generate()
	exact, err := graph.Build(c, graph.BuilderConfig{K: 10})
	if err != nil {
		b.Fatal(err)
	}
	for _, maxDF := range []int{0, 2000, 500} {
		b.Run(fmt.Sprintf("maxDF=%d", maxDF), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := graph.Build(c, graph.BuilderConfig{K: 10, MaxDF: maxDF})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(g.NumEdges()), "edges")
				b.ReportMetric(sameNeighbourSets(g, exact), "same_rows")
			}
		})
	}
}

// sameNeighbourSets returns the fraction of vertices whose neighbour set
// (targets, ignoring order and weights) is the same in a and b. Both
// graphs must come from the same corpus, so vertex ids line up.
func sameNeighbourSets(a, b *graph.Graph) float64 {
	n := a.NumVertices()
	if n == 0 {
		return 1
	}
	same := 0
	in := make(map[int32]bool)
	for v := 0; v < n; v++ {
		ra, rb := a.Neighbors[v], b.Neighbors[v]
		if len(ra) != len(rb) {
			continue
		}
		clear(in)
		for _, e := range ra {
			in[e.To] = true
		}
		match := true
		for _, e := range rb {
			match = match && in[e.To]
		}
		if match {
			same++
		}
	}
	return float64(same) / float64(n)
}

// BenchmarkAblation_ChemDNERFeatures isolates the cost of distributional
// feature extraction (Brown + word2vec classes) in CRF compilation.
func BenchmarkAblation_ChemDNERFeatures(b *testing.B) {
	train, _ := ablationCorpora(400)
	classer, err := env().Classer(synth.BC2GM)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []struct {
		name string
		ex   *features.Extractor
	}{
		{"banner", features.NewExtractor(nil)},
		{"chemdner", features.NewExtractor(classer)},
	} {
		b.Run(spec.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				comp := crf.NewCompiler(spec.ex)
				comp.Compile(train)
				b.ReportMetric(float64(comp.Alphabet.Len()), "features")
			}
		})
	}
}
