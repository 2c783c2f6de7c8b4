package graphner

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/tokenize"
)

func smallCorpora(t *testing.T, profile synth.Profile, n int) (train, test *corpus.Corpus) {
	t.Helper()
	cfg := synth.DefaultConfig(profile, 7)
	cfg.Sentences = n
	return synth.GenerateSplit(cfg)
}

func fastConfig() Config {
	cfg := Default()
	cfg.Order = crf.Order1
	cfg.CRFIterations = 40
	return cfg
}

func TestReferenceDistributions(t *testing.T) {
	c := corpus.New()
	mk := func(text string, tags []corpus.Tag) {
		s := &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)}
		s.Tags = tags
		c.Sentences = append(c.Sentences, s)
	}
	// "x y z" twice with different tags for y: distribution is averaged.
	mk("x y z", []corpus.Tag{corpus.O, corpus.B, corpus.O})
	mk("x y z", []corpus.Tag{corpus.O, corpus.O, corpus.O})
	refs := ReferenceDistributions(c)
	g := corpus.Trigram([]string{"x", "y", "z"}, 1)
	d, ok := refs[g]
	if !ok {
		t.Fatal("missing reference for [x y z]")
	}
	if math.Abs(d[corpus.B]-0.5) > 1e-12 || math.Abs(d[corpus.O]-0.5) > 1e-12 {
		t.Errorf("reference = %v, want (0.5, 0, 0.5)", d)
	}
	// Unlabelled sentences are ignored.
	c2 := corpus.New()
	c2.Sentences = append(c2.Sentences, &corpus.Sentence{Text: "a b", Tokens: tokenize.Sentence("a b")})
	if len(ReferenceDistributions(c2)) != 0 {
		t.Error("unlabelled sentences contributed references")
	}
}

func TestAveragePosteriors(t *testing.T) {
	c := corpus.New()
	c.Sentences = append(c.Sentences,
		&corpus.Sentence{Text: "a b", Tokens: tokenize.Sentence("a b")},
		&corpus.Sentence{Text: "a b", Tokens: tokenize.Sentence("a b")},
	)
	g, err := graph.Build(c, graph.BuilderConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Both occurrences of trigram [<S> a b]: average of the two posteriors.
	post := [][][]float64{
		{{1, 0, 0}, {0, 1, 0}},
		{{0, 0, 1}, {0, 1, 0}},
	}
	X := AveragePosteriors(g, c, post)
	vi := g.Lookup(corpus.Trigram([]string{"a", "b"}, 0))
	if vi < 0 {
		t.Fatal("vertex missing")
	}
	if math.Abs(X[vi][0]-0.5) > 1e-12 || math.Abs(X[vi][2]-0.5) > 1e-12 {
		t.Errorf("X = %v, want (0.5, 0, 0.5)", X[vi])
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(corpus.New(), Default()); err == nil {
		t.Error("want error for empty training corpus")
	}
}

func TestGoldTransitions(t *testing.T) {
	c := corpus.New()
	s := &corpus.Sentence{Text: "a b c d", Tokens: tokenize.Sentence("a b c d")}
	s.Tags = []corpus.Tag{corpus.B, corpus.I, corpus.O, corpus.O}
	c.Sentences = append(c.Sentences, s)
	tr := GoldTransitions(c)
	if len(tr) != corpus.NumTags {
		t.Fatalf("rows = %d", len(tr))
	}
	for p, row := range tr {
		var sum float64
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative probability in row %d", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %g", p, sum)
		}
	}
	// O→I is structurally forbidden.
	if tr[corpus.O][corpus.I] != 0 {
		t.Errorf("O→I = %g, want 0", tr[corpus.O][corpus.I])
	}
	// Observed bigrams dominate their smoothed alternatives: B→I was seen,
	// B→B was not.
	if tr[corpus.B][corpus.I] <= tr[corpus.B][corpus.B] {
		t.Errorf("B→I (%g) not above unseen B→B (%g)", tr[corpus.B][corpus.I], tr[corpus.B][corpus.B])
	}
}

func TestWithConfigPreservesModel(t *testing.T) {
	train, test := smallCorpora(t, synth.AML, 120)
	cfg := fastConfig()
	cfg.CRFIterations = 10
	sys, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2 := sys.Config()
	c2.Alpha = 0.77
	c2.Order = crf.Order2 // model-affecting: must be ignored
	c2.K = 3
	sys2 := sys.WithConfig(c2)
	if sys2.Config().Alpha != 0.77 || sys2.Config().K != 3 {
		t.Error("test-time fields not applied")
	}
	if sys2.Config().Order != cfg.Order {
		t.Error("model-affecting Order was not preserved")
	}
	if sys2.Model() != sys.Model() {
		t.Error("model not shared")
	}
	// Baseline decoding must be identical (same trained model).
	a := sys.BaselineTags(test)
	b := sys2.BaselineTags(test)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("baseline decoding changed under WithConfig")
			}
		}
	}
}

func TestEndToEndImprovesOrMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	train, test := smallCorpora(t, synth.BC2GM, 2000)
	sys, err := Train(train, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Test(test)
	if err != nil {
		t.Fatal(err)
	}

	// Mechanical invariants.
	if len(out.Tags) != len(test.Sentences) {
		t.Fatalf("got %d tag rows", len(out.Tags))
	}
	for i, tags := range out.Tags {
		if len(tags) != len(test.Sentences[i].Tokens) {
			t.Fatalf("sentence %d: %d tags for %d tokens", i, len(tags), len(test.Sentences[i].Tokens))
		}
	}
	if out.LabelledVertexFraction <= 0 || out.LabelledVertexFraction > 1 {
		t.Errorf("labelled fraction %g", out.LabelledVertexFraction)
	}
	if out.PositiveVertexFraction >= out.LabelledVertexFraction {
		t.Errorf("positive fraction %g not below labelled fraction %g",
			out.PositiveVertexFraction, out.LabelledVertexFraction)
	}

	// Score both systems.
	basePreds, err := eval.PredictionsFromTags(test, out.BaselineTags)
	if err != nil {
		t.Fatal(err)
	}
	gnPreds, err := eval.PredictionsFromTags(test, out.Tags)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := eval.Evaluate(test, basePreds)
	if err != nil {
		t.Fatal(err)
	}
	gnRes, err := eval.Evaluate(test, gnPreds)
	if err != nil {
		t.Fatal(err)
	}
	base, gn := baseRes.Metrics(), gnRes.Metrics()
	t.Logf("baseline: %v", base)
	t.Logf("graphner: %v", gn)
	if base.F1 < 0.5 {
		t.Errorf("baseline CRF implausibly weak: %v", base)
	}
	// The paper's headline claim, in relaxed form for a small corpus:
	// GraphNER must not fall more than a point below the baseline F and
	// must not lose precision.
	if gn.F1 < base.F1-0.01 {
		t.Errorf("GraphNER F %v clearly below baseline %v", gn.F1, base.F1)
	}
	if gn.Precision < base.Precision-0.01 {
		t.Errorf("GraphNER precision %v clearly below baseline %v", gn.Precision, base.Precision)
	}
}

func TestTestWithExtraUnlabelled(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	// Generate one corpus; use a slice as extra unlabelled data.
	cfg := synth.DefaultConfig(synth.BC2GM, 21)
	cfg.Sentences = 900
	all := synth.NewGenerator(cfg).Generate()
	train, rest := all.Split(500)
	test, extra := rest.Split(150)

	gcfg := fastConfig()
	gcfg.CRFIterations = 30
	sys, err := Train(train, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	withExtra, err := sys.TestWithExtra(test, extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(withExtra.Tags) != len(test.Sentences) {
		t.Fatalf("decoded %d sentences, want %d", len(withExtra.Tags), len(test.Sentences))
	}
	// The graph over train ∪ test ∪ extra must be strictly larger.
	if withExtra.Graph.NumVertices() <= plain.Graph.NumVertices() {
		t.Errorf("extra unlabelled data did not grow the graph (%d vs %d vertices)",
			withExtra.Graph.NumVertices(), plain.Graph.NumVertices())
	}
	// And the labelled fraction must drop (more unlabelled vertices).
	if withExtra.LabelledVertexFraction >= plain.LabelledVertexFraction {
		t.Errorf("labelled fraction did not drop: %g vs %g",
			withExtra.LabelledVertexFraction, plain.LabelledVertexFraction)
	}
	// Both runs decode every test token.
	for i := range withExtra.Tags {
		if len(withExtra.Tags[i]) != len(test.Sentences[i].Tokens) {
			t.Fatal("tag length mismatch")
		}
	}
}

func TestTestWithGraphValidation(t *testing.T) {
	train, test := smallCorpora(t, synth.AML, 60)
	cfg := fastConfig()
	cfg.CRFIterations = 5
	sys, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.BuildGraph(test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TestWithGraph(corpus.New(), g); err == nil {
		t.Error("want error for empty test corpus")
	}
}

func TestFigure1Walkthrough(t *testing.T) {
	// Reconstruct the paper's Figure 1 scenario: the labelled data tags
	// "wilms tumor - 1" as a gene but also contains "tumor - 1" with O
	// labels in a different context ("the patient 's tumor - 1 subclone"),
	// which misleads the CRF about "-" in gene contexts. Graph propagation
	// over shared 3-gram contexts must label the unlabelled occurrence of
	// "wilms tumor - 1" as a gene.
	labelled := corpus.New()
	mk := func(c *corpus.Corpus, id, text string, tags []corpus.Tag) {
		s := &corpus.Sentence{ID: id, Text: text, Tokens: tokenize.Sentence(text)}
		s.Tags = tags
		c.Sentences = append(c.Sentences, s)
	}
	T := func(ts ...corpus.Tag) []corpus.Tag { return ts }
	const (
		B = corpus.B
		I = corpus.I
		O = corpus.O
	)
	// Several labelled examples establishing the contexts.
	mk(labelled, "L1", "drug response was significant in wilms tumor - 1 positive patients .",
		T(O, O, O, O, O, B, I, I, I, O, O, O))
	mk(labelled, "L2", "we observed the following mutations in wilms tumor - 1 .",
		T(O, O, O, O, O, O, B, I, I, I, O))
	mk(labelled, "L3", "we did not observe this mutation in the patient 's tumor - 1 subclone .",
		T(O, O, O, O, O, O, O, O, O, O, O, O, O, O, O, O))
	mk(labelled, "L4", "expression of wilms tumor - 1 was high in these samples .",
		T(O, O, B, I, I, I, O, O, O, O, O, O))
	mk(labelled, "L5", "mutations of wilms tumor - 1 were frequent .",
		T(O, O, B, I, I, I, O, O, O))
	mk(labelled, "L6", "the patient 's tumor - 1 subclone was sequenced .",
		T(O, O, O, O, O, O, O, O, O, O, O))

	unlabelled := corpus.New()
	mk(unlabelled, "U1", "wilms tumor - 1 ( wt1 ) gene was highly expressed .", nil)
	mk(unlabelled, "U2", "we did not observe this mutation in the patient 's tumor - 2 subclone .", nil)

	cfg := Default()
	cfg.Alpha = 0.1 // the walkthrough's value
	cfg.Order = crf.Order1
	cfg.CRFIterations = 50
	cfg.K = 5
	cfg.Mu = 0.5 // tiny graph: strong smoothing makes the effect visible
	cfg.Nu = 0.01
	cfg.Iterations = 3

	sys, err := Train(labelled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Test(unlabelled)
	if err != nil {
		t.Fatal(err)
	}
	// U1 tokens: wilms tumor - 1 ( wt 1 ) gene was highly expressed .
	got := out.Tags[0]
	if got[0] != B || got[1] != I || got[2] != I || got[3] != I {
		t.Errorf("U1 'wilms tumor - 1' tagged %v %v %v %v, want B I I I",
			got[0], got[1], got[2], got[3])
	}
	// U2's "tumor - 2" is background; its tokens must be O.
	u2 := out.Tags[1]
	words := unlabelled.Sentences[1].Words()
	for i, w := range words {
		if w == "tumor" || w == "subclone" {
			if u2[i] != O {
				t.Errorf("U2 token %q tagged %v, want O (tags: %v)", w, u2[i], u2)
			}
		}
	}
}
