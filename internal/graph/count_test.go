package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/features"
)

// modeConfigs returns one builder configuration per feature mode over
// base, whose gold tags stand in for the tagger's in MIFeatures mode.
func modeConfigs(base *corpus.Corpus) []BuilderConfig {
	tags := make([][]corpus.Tag, len(base.Sentences))
	for i, s := range base.Sentences {
		tags[i] = s.Tags
	}
	ex := features.NewExtractor(nil)
	return []BuilderConfig{
		{K: 6, Mode: AllFeatures, Extractor: ex},
		{K: 6, Mode: LexicalFeatures, Extractor: ex},
		{K: 6, Mode: MIFeatures, MIThreshold: 0.0005, Tags: tags, Extractor: ex},
	}
}

// assertRunsEqual fails unless two per-vertex run lists and totals are
// identical, totals bit for bit.
func assertRunsEqual(t *testing.T, tag string, got, want [][]featRun, gotTotal, wantTotal []float64) {
	t.Helper()
	if len(got) != len(want) || len(gotTotal) != len(wantTotal) {
		t.Fatalf("%s: %d vertices with runs, want %d", tag, len(got), len(want))
	}
	for v := range want {
		if !slices.Equal(got[v], want[v]) {
			t.Fatalf("%s: vertex %d runs %v, want %v", tag, v, got[v], want[v])
		}
		if math.Float64bits(gotTotal[v]) != math.Float64bits(wantTotal[v]) {
			t.Fatalf("%s: vertex %d total %v, want %v", tag, v, gotTotal[v], wantTotal[v])
		}
	}
}

// assertCSRIdentical fails unless two graphs have the same CSR arrays,
// weights bit for bit.
func assertCSRIdentical(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.Vertices, want.Vertices) || !slices.Equal(got.EdgeOffsets, want.EdgeOffsets) || !slices.Equal(got.EdgeTo, want.EdgeTo) {
		t.Fatalf("%s: vertices or CSR structure differ", tag)
	}
	if len(got.EdgeWeight) != len(want.EdgeWeight) {
		t.Fatalf("%s: %d edge weights, want %d", tag, len(got.EdgeWeight), len(want.EdgeWeight))
	}
	for i, w := range want.EdgeWeight {
		if math.Float64bits(got.EdgeWeight[i]) != math.Float64bits(w) {
			t.Fatalf("%s: edge %d weight %v, want %v", tag, i, got.EdgeWeight[i], w)
		}
	}
}

// TestBuildWorkersIdentical pins the block-parallel counting pass: at
// Workers 1, 2, 3 and 8, in every feature mode, under fresh statistics and
// under a frozen snapshot, Build gives the same CSR arrays bit for bit and
// the counting pass the same alphabet, featTotal, grand and runs — also
// on a corpus with fewer sentences than workers.
func TestBuildWorkersIdentical(t *testing.T) {
	scfg := synth.DefaultConfig(synth.BC2GM, 23)
	scfg.Sentences = 260
	all := synth.NewGenerator(scfg).Generate()
	base, more := corpus.New(), corpus.New()
	base.Sentences, more.Sentences = all.Sentences[:200], all.Sentences[200:]
	tiny := corpus.New()
	tiny.Sentences = all.Sentences[:3]
	for _, cfg := range modeConfigs(base) {
		for _, c := range []struct {
			name       string
			corp, more *corpus.Corpus
		}{{"corpus", base, more}, {"tiny", tiny, more}} {
			if c.corp == tiny && cfg.Mode == MIFeatures {
				cfg.Tags = cfg.Tags[:len(tiny.Sentences)]
			}
			var wantG, wantFrozen *Graph
			var wantSt *Stats
			var wantRuns [][]featRun
			var wantTotal []float64
			for _, w := range []int{1, 2, 3, 8} {
				tag := fmt.Sprintf("%v/%s/workers=%d", cfg.Mode, c.name, w)
				wc := cfg
				wc.Workers = w
				g, err := Build(c.corp, wc)
				if err != nil {
					t.Fatal(err)
				}
				_, _, runs, total, st := vertexVectors(c.corp, wc)
				frozen := wc
				frozen.Stats, frozen.Tags = st, nil
				fg, err := Build(c.more, frozen)
				if err != nil {
					t.Fatal(err)
				}
				if w == 1 {
					wantG, wantFrozen, wantSt, wantRuns, wantTotal = g, fg, st, runs, total
					if c.corp == base && (g.NumEdges() == 0 || fg.NumEdges() == 0) {
						t.Fatalf("%s: no edges", tag)
					}
					continue
				}
				assertCSRIdentical(t, tag, g, wantG)
				assertCSRIdentical(t, tag+" frozen", fg, wantFrozen)
				assertStatsIdentical(t, tag, st, wantSt)
				assertRunsEqual(t, tag, runs, wantRuns, total, wantTotal)
			}
		}
	}
}

// TestUpdaterRunsMatchFreshCount: after NewUpdater and each AddSentences,
// the Updater's runs and totals equal a fresh count of the union under
// its frozen snapshot, in every feature mode — and a clone's fold leaves
// the original's runs, which share nothing with the clone's, intact.
func TestUpdaterRunsMatchFreshCount(t *testing.T) {
	base, batches := synthBatches(29, 60, []int{7, 30})
	for _, cfg := range modeConfigs(base) {
		cfg.Workers = 3
		u, err := NewUpdater(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		union := base
		check := func(tag string, u *Updater, union *corpus.Corpus) {
			t.Helper()
			g := u.Graph()
			runs, total, _ := countFeatures(union, u.cfg, g.Index, g.NumVertices())
			assertRunsEqual(t, tag, u.runs, runs, u.vertTotal, total)
		}
		check(fmt.Sprintf("%v/base", cfg.Mode), u, union)
		for bi, b := range batches {
			c := u.Clone()
			if _, err := c.AddSentences(b); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%v/clone untouched by batch %d", cfg.Mode, bi), u, union)
			if _, err := u.AddSentences(b); err != nil {
				t.Fatal(err)
			}
			union = unionOf(union, &corpus.Corpus{Sentences: b})
			check(fmt.Sprintf("%v/batch %d", cfg.Mode, bi), u, union)
			check(fmt.Sprintf("%v/clone batch %d", cfg.Mode, bi), c, union)
		}
	}
}
