package graphner

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/graph"
	"repro/internal/propagate"
)

func streamFixture(t *testing.T) (*System, *corpus.Corpus, *corpus.Corpus) {
	t.Helper()
	train, test := smallCorpora(t, synth.AML, 120)
	cfg := fastConfig()
	cfg.CRFIterations = 15
	sys, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := synth.DefaultConfig(synth.AML, 33)
	bcfg.Sentences = 40
	extra := synth.NewGenerator(bcfg).Generate()
	return sys, test, extra
}

// sameBits reports the first index at which two belief matrices differ
// in their bits, or -1 when they are identical.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// flatten copies slice-of-rows beliefs into one row-major matrix.
func flatten(rows [][]float64) []float64 {
	out := make([]float64, 0, len(rows)*corpus.NumTags)
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// sameTags fails the test at the first sentence whose tags differ.
func sameTags(t *testing.T, what string, got, want [][]corpus.Tag) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tagged sentences, want %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: sentence %d has %d tags, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: sentence %d token %d tagged %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestStreamerInitialMatchesTest: the streamer's initial pass is
// System.Test — the same graph, bit-identical beliefs and the same tags.
// This is what lets a stream-mode server keep serving the frozen
// artifact until its first fold.
func TestStreamerInitialMatchesTest(t *testing.T) {
	sys, test, _ := streamFixture(t)
	st, err := NewStreamer(sys, test)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Graph().Equal(out.Graph) {
		t.Fatal("streamer graph differs from System.Test's")
	}
	if i := sameBits(st.VertexBeliefs(), flatten(out.VertexBeliefs)); i >= 0 {
		t.Fatalf("initial belief entry %d differs from System.Test's", i)
	}
	sameTags(t, "initial tags vs System.Test", st.Tags(), out.Tags)
	sameTags(t, "baseline tags vs System.Test", st.BaselineTags(), out.BaselineTags)
}

// TestStreamerFoldMatchesFromScratch: after every fold the beliefs are
// bit-identical to a from-scratch fixed-sweep propagation over the
// maintained graph, seeded with AveragePosteriors over train ∪ test ∪
// every batch folded so far; and the selectively re-decoded tags equal a
// full re-decode of every test sentence.
func TestStreamerFoldMatchesFromScratch(t *testing.T) {
	sys, test, extra := streamFixture(t)
	st, err := NewStreamer(sys, test)
	if err != nil {
		t.Fatal(err)
	}
	folded := corpus.New()
	for _, size := range []int{12, 8, 20} {
		var batch *corpus.Corpus
		batch, extra = extra.Split(size)
		oldX := append([]float64(nil), st.VertexBeliefs()...)
		res, err := st.AddUnlabelled(batch)
		if err != nil {
			t.Fatal(err)
		}
		folded.Sentences = append(folded.Sentences, batch.Sentences...)

		g := st.Graph()
		n := g.NumVertices()
		union := sys.union(test, folded)
		ins := sys.compileCorpus(union)
		rows := AveragePosteriors(g, union, sys.posteriorsOf(ins))
		const Y = corpus.NumTags
		X := make([]float64, n*Y)
		xref := make([][]float64, n)
		labelled := make([]bool, n)
		for v := 0; v < n; v++ {
			for y := 0; y < Y; y++ {
				if rows[v] != nil {
					X[v*Y+y] = rows[v][y]
				} else {
					X[v*Y+y] = 1.0 / Y
				}
			}
			xref[v], labelled[v] = sys.xref[g.Vertices[v]]
		}
		cfg := sys.Config()
		if _, err := propagate.RunFlat(g, X, xref, labelled, propagate.Config{
			Mu: cfg.Mu, Nu: cfg.Nu, Iterations: cfg.Iterations, Workers: cfg.Workers,
		}); err != nil {
			t.Fatal(err)
		}
		if i := sameBits(st.VertexBeliefs(), X); i >= 0 {
			t.Fatalf("after %d folded sentences: belief entry %d differs from a from-scratch run", len(folded.Sentences), i)
		}

		if len(res.Warm.Touched) != n {
			t.Fatalf("Touched has %d rows, want %d", len(res.Warm.Touched), n)
		}
		for v := 0; v < n; v++ {
			moved := v*Y >= len(oldX) || sameBits(oldX[v*Y:v*Y+Y], X[v*Y:v*Y+Y]) >= 0
			if res.Warm.Touched[v] != moved {
				t.Fatalf("vertex %d: Touched = %v, want %v", v, res.Warm.Touched[v], moved)
			}
		}

		full, err := sys.testOnUnion(test, union, ins, g)
		if err != nil {
			t.Fatal(err)
		}
		sameTags(t, "selective re-decode vs full re-decode", st.Tags(), full.Tags)
	}
}

// TestStreamerBatchOrderInvariance: feeding the extra unlabelled data in
// three batches produces the same graph, bit-identical beliefs and the
// same tags as feeding it in one — the streaming TEST mode's correctness
// bar at the pipeline level.
func TestStreamerBatchOrderInvariance(t *testing.T) {
	sys, test, extra := streamFixture(t)

	a, err := NewStreamer(sys, test)
	if err != nil {
		t.Fatal(err)
	}
	b1, rest := extra.Split(15)
	b2, b3 := rest.Split(10)
	for _, batch := range []*corpus.Corpus{b1, b2, b3} {
		res, err := a.AddUnlabelled(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Update.NewVertices == 0 {
			t.Error("batch introduced no new vertices — fixture too small")
		}
	}

	b, err := NewStreamer(sys, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddUnlabelled(extra); err != nil {
		t.Fatal(err)
	}

	// Identical sentence order means identical first-occurrence vertex
	// ids: the graphs must be exactly equal without renumbering.
	if !a.Graph().Equal(b.Graph()) {
		t.Fatal("three-batch graph differs from single-batch graph")
	}
	// Both fold the same posteriors in the same order, so the seeds, and
	// with them the fixed-sweep beliefs, agree bit for bit.
	if i := sameBits(a.VertexBeliefs(), b.VertexBeliefs()); i >= 0 {
		t.Fatalf("belief entry %d differs across batch schedules", i)
	}
	sameTags(t, "three batches vs one", a.Tags(), b.Tags())
	for i, tags := range a.Tags() {
		if len(tags) != len(test.Sentences[i].Tokens) {
			t.Fatalf("sentence %d: %d tags for %d tokens", i, len(tags), len(test.Sentences[i].Tokens))
		}
	}
}

// TestStreamerGraphMatchesBatchBuild is the hard equivalence bar wired
// through the pipeline: the incrementally maintained graph equals a
// from-scratch Build over the accumulated union under the frozen
// statistics snapshot, up to canonical renumbering.
func TestStreamerGraphMatchesBatchBuild(t *testing.T) {
	sys, test, extra := streamFixture(t)
	st, err := NewStreamer(sys, test)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := extra.Split(25)
	for _, batch := range []*corpus.Corpus{b1, b2} {
		if _, err := st.AddUnlabelled(batch); err != nil {
			t.Fatal(err)
		}
	}

	union := sys.union(test, nil)
	union.Sentences = append(union.Sentences, extra.StripLabels().Sentences...)
	bc := sys.builderConfig(union, nil)
	bc.Stats = st.Updater().Stats()
	want, err := graph.Build(union, bc)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Graph().CanonicalClone().Equal(want.CanonicalClone()) {
		t.Fatal("streamed graph differs from batch build over the union")
	}
}

// TestStreamerSelectiveRedecode: a batch only re-decodes test sentences
// containing a touched vertex, and leaves tag rows well-formed either way.
func TestStreamerSelectiveRedecode(t *testing.T) {
	sys, test, extra := streamFixture(t)
	st, err := NewStreamer(sys, test)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := extra.Split(10)
	res, err := st.AddUnlabelled(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redecoded > len(test.Sentences) {
		t.Fatalf("re-decoded %d of %d sentences", res.Redecoded, len(test.Sentences))
	}
	if res.Warm.Sweeps == 0 || res.Warm.Updates == 0 {
		t.Error("warm propagation did no work for a non-empty batch")
	}
	for i, tags := range st.Tags() {
		if len(tags) != len(test.Sentences[i].Tokens) {
			t.Fatalf("sentence %d: %d tags for %d tokens", i, len(tags), len(test.Sentences[i].Tokens))
		}
	}
	if len(st.BaselineTags()) != len(test.Sentences) {
		t.Fatal("baseline tags missing")
	}
}

// TestStreamerValidation covers the error paths and the empty-batch no-op.
func TestStreamerValidation(t *testing.T) {
	sys, test, _ := streamFixture(t)
	if _, err := NewStreamer(sys, corpus.New()); err == nil {
		t.Error("want error for empty test corpus")
	}
	st, err := NewStreamer(sys, test)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Graph().NumVertices()
	res, err := st.AddUnlabelled(corpus.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.Update.NewVertices != 0 || res.Redecoded != 0 || st.Graph().NumVertices() != before {
		t.Error("empty batch was not a no-op")
	}
}
