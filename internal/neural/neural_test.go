package neural

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/tokenize"
)

func toySentence(text string, tags []corpus.Tag) *corpus.Sentence {
	return &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text), Tags: tags}
}

func toyCorpus() *corpus.Corpus {
	c := corpus.New()
	add := func(text string, tags ...corpus.Tag) {
		c.Sentences = append(c.Sentences, toySentence(text, tags))
	}
	B, I, O := corpus.B, corpus.I, corpus.O
	add("the GENEA gene", O, B, O)
	add("the GENEB gene", O, B, O)
	add("mutation of GENEA was found", O, O, B, O, O)
	add("mutation of GENEB was found", O, O, B, O, O)
	add("no genes appear here", O, O, O, O)
	add("the patient was treated", O, O, O, O)
	add("GENEA binds GENEB strongly", B, O, B, O)
	add("wilms tumor protein acts", B, I, I, O)
	_ = I
	return c
}

func tinyConfig(arch Arch) TaggerConfig {
	return TaggerConfig{
		Arch: arch, WordDim: 8, Hidden: 6, CharHidden: 4,
		Epochs: 60, Rate: 0.02, MinCount: 1, Seed: 3,
	}
}

func TestGradientFiniteDifference(t *testing.T) {
	for _, arch := range []Arch{LSTMCRF, CharAttention} {
		cfg := tinyConfig(arch)
		cfg.Epochs = 0 // just build
		tg, err := TrainTagger(toyCorpus(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := toySentence("the GENEA gene", []corpus.Tag{corpus.O, corpus.B, corpus.O})

		tg.st.zeroGrads()
		loss0, _ := tg.lossAndGrad(s)
		grads := append([]float64(nil), tg.st.grads...)

		const h = 1e-6
		checked := 0
		for i := 0; i < len(tg.st.params); i += 17 { // sample coordinates
			old := tg.st.params[i]
			tg.st.params[i] = old + h
			tg.st.zeroGrads()
			lossP, _ := tg.lossAndGrad(s)
			tg.st.params[i] = old
			num := (lossP - loss0) / h
			if math.Abs(num-grads[i]) > 1e-3*(1+math.Abs(num)) {
				t.Errorf("%v: grad[%d] = %g, finite diff %g", arch, i, grads[i], num)
			}
			checked++
		}
		if checked < 10 {
			t.Fatalf("only checked %d coordinates", checked)
		}
	}
}

func TestTrainingFitsToyData(t *testing.T) {
	for _, arch := range []Arch{LSTMCRF, CharAttention} {
		c := toyCorpus()
		tg, err := TrainTagger(c, nil, tinyConfig(arch))
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		correct, total := 0, 0
		for _, s := range c.Sentences {
			got := tg.Tag(s)
			for i := range got {
				if got[i] == s.Tags[i] {
					correct++
				}
				total++
			}
		}
		acc := float64(correct) / float64(total)
		if acc < 0.95 {
			t.Errorf("%v: training accuracy %.2f, want ≥ 0.95", arch, acc)
		}
	}
}

func TestCharVariantGeneralizesToUnseenSurfaces(t *testing.T) {
	// The char-attention model should recognize an unseen gene-like
	// surface ("GENEC") from its character shape; train surfaces GENEA,
	// GENEB share the GENE- prefix.
	c := toyCorpus()
	tg, err := TrainTagger(c, nil, tinyConfig(CharAttention))
	if err != nil {
		t.Fatal(err)
	}
	s := toySentence("mutation of GENEC was found", nil)
	got := tg.Tag(s)
	if got[2] != corpus.B {
		t.Logf("char model tagged unseen surface as %v (tags %v) — acceptable but weak", got[2], got)
	}
	// At minimum, the context words must be O.
	if got[0] != corpus.O || got[4] != corpus.O {
		t.Errorf("context words mistagged: %v", got)
	}
}

func TestWordDropout(t *testing.T) {
	// With dropout 1.0 every training token is <UNK>; the model must still
	// train (context/char signal only) and tag without error.
	cfg := tinyConfig(CharAttention)
	cfg.WordDropout = 1.0
	cfg.Epochs = 5
	tg, err := TrainTagger(toyCorpus(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := tg.Tag(toySentence("the GENEA gene", nil))
	if len(got) != 3 {
		t.Fatalf("tags = %v", got)
	}
	// Moderate dropout must leave results deterministic under a fixed seed.
	cfg2 := tinyConfig(LSTMCRF)
	cfg2.WordDropout = 0.2
	cfg2.Epochs = 3
	a, err := TrainTagger(toyCorpus(), nil, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainTagger(toyCorpus(), nil, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s := toySentence("mutation of GENEB was found", nil)
	ta, tb := a.Tag(s), b.Tag(s)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("dropout broke determinism under fixed seed")
		}
	}
}

func TestDevEarlyStoppingSelectsBest(t *testing.T) {
	c := toyCorpus()
	dev := corpus.New()
	dev.Sentences = c.Sentences[:3]
	var epochs int
	cfg := tinyConfig(LSTMCRF)
	cfg.Progress = func(e int, loss, devF1 float64) { epochs = e + 1 }
	tg, err := TrainTagger(c, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if epochs != cfg.Epochs {
		t.Errorf("ran %d epochs, want %d", epochs, cfg.Epochs)
	}
	if tg.tokenAccuracy(dev) < 0.9 {
		t.Error("dev accuracy after early stopping too low")
	}
}

func TestTrainValidationErrors(t *testing.T) {
	if _, err := TrainTagger(corpus.New(), nil, TaggerConfig{}); err == nil {
		t.Error("want error for empty corpus")
	}
	c := corpus.New()
	c.Sentences = append(c.Sentences, toySentence("unlabelled text", nil))
	if _, err := TrainTagger(c, nil, TaggerConfig{}); err == nil {
		t.Error("want error for unlabelled sentence")
	}
	cfg := TaggerConfig{Arch: CharAttention, WordDim: 10, CharHidden: 3, MinCount: 1}
	if _, err := TrainTagger(toyCorpus(), nil, cfg); err == nil {
		t.Error("want error for CharHidden != WordDim/2")
	}
}

func TestTagEmptySentence(t *testing.T) {
	tg, err := TrainTagger(toyCorpus(), nil, TaggerConfig{Epochs: 1, MinCount: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tg.Tag(toySentence("", nil)); got != nil {
		t.Errorf("Tag(empty) = %v", got)
	}
}

func TestNormWord(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1234", numToken},
		{"12a", "12a"},
		{"The", "the"},
		{"GENEA", "genea"},
	}
	for _, c := range cases {
		if got := normWord(c.in); got != c.want {
			t.Errorf("normWord(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNumParameters(t *testing.T) {
	tg, err := TrainTagger(toyCorpus(), nil, TaggerConfig{Epochs: 0, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumParameters() == 0 {
		t.Error("no parameters")
	}
	tg2, err := TrainTagger(toyCorpus(), nil, TaggerConfig{Arch: CharAttention, Epochs: 0, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tg2.NumParameters() <= tg.NumParameters() {
		t.Error("char variant should have more parameters")
	}
}

func TestCRFLayerDecodeRespectsTransitions(t *testing.T) {
	st := &store{}
	st.reserve(numTags*numTags + numTags)
	l := newCRFLayer(st)
	// Make O→B very unfavorable; with neutral emissions the decoder should
	// avoid B after O.
	l.trans.w[int(corpus.O)*numTags+int(corpus.B)] = -10
	emit := [][]float64{{0, 0, 0.1}, {0.05, 0, 0}}
	tags := l.Decode(emit)
	if tags[0] == corpus.O && tags[1] == corpus.B {
		t.Errorf("decoder ignored transition penalty: %v", tags)
	}
	if l.Decode(nil) != nil {
		t.Error("Decode(empty) != nil")
	}
}

func BenchmarkLossAndGrad(b *testing.B) {
	tg, err := TrainTagger(toyCorpus(), nil, TaggerConfig{Epochs: 0, MinCount: 1, WordDim: 32, Hidden: 32})
	if err != nil {
		b.Fatal(err)
	}
	s := toySentence("mutation of GENEA was found", []corpus.Tag{corpus.O, corpus.O, corpus.B, corpus.O, corpus.O})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.st.zeroGrads()
		tg.lossAndGrad(s)
	}
}

// TestTrainTaggerDeterministic trains twice with one seed: vocabulary ids,
// and with them the initial embedding rows, must not depend on map order,
// so the parameters and the tags come out identical.
func TestTrainTaggerDeterministic(t *testing.T) {
	for _, arch := range []Arch{LSTMCRF, CharAttention} {
		cfg := tinyConfig(arch)
		cfg.Epochs = 3
		a, err := TrainTagger(toyCorpus(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := TrainTagger(toyCorpus(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.st.params {
			if a.st.params[i] != b.st.params[i] {
				t.Fatalf("arch %v: parameter %d differs between runs: %v vs %v", arch, i, a.st.params[i], b.st.params[i])
			}
		}
		for _, s := range toyCorpus().Sentences {
			ta, tb := a.Tag(s), b.Tag(s)
			for j := range ta {
				if ta[j] != tb[j] {
					t.Fatalf("arch %v: %q tagged %v and %v", arch, s.Text, ta, tb)
				}
			}
		}
	}
}
