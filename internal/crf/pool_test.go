package crf

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/tokenize"
)

// This file pins the pooled-lattice inference paths and the flat-backed
// sentence compiler. Posteriors and LogLikelihood are checked against the
// big.Float oracle of train_test.go; Decode and CompileSentence against
// allocating references that carry the seed arithmetic verbatim, bit for
// bit. The checks run after the pool has been warmed by sentences of
// different lengths, so stale residue in reused buffers must be invisible.

// referenceDecode is the seed Decode implementation.
func referenceDecode(m *Model, in *Instance) []corpus.Tag {
	if in.Len() == 0 {
		return nil
	}
	emit := m.lattice(in)
	n := in.Len()
	S := m.S
	delta := logMatrix(n, S)
	back := make([][]int32, n)
	for i := range back {
		back[i] = make([]int32, S)
	}
	for s := 0; s < S; s++ {
		if m.startOK(s) {
			delta[0][s] = m.Start[s] + emit[0][s]
		}
	}
	for i := 1; i < n; i++ {
		for cur := 0; cur < S; cur++ {
			best, arg := negInf, -1
			for prev := 0; prev < S; prev++ {
				if !m.transitionOK(prev, cur) || math.IsInf(delta[i-1][prev], -1) {
					continue
				}
				if v := delta[i-1][prev] + m.T[prev*S+cur]; v > best {
					best, arg = v, prev
				}
			}
			if arg >= 0 {
				delta[i][cur] = best + emit[i][cur]
				back[i][cur] = int32(arg)
			}
		}
	}
	best, arg := negInf, 0
	for s := 0; s < S; s++ {
		if delta[n-1][s] > best {
			best, arg = delta[n-1][s], s
		}
	}
	tags := make([]corpus.Tag, n)
	for i := n - 1; i >= 0; i-- {
		tags[i] = m.stateTag(arg)
		arg = int(back[i][arg])
	}
	return tags
}

// TestPooledInferenceMatchesExact checks the pooled inference paths on
// both orders, BIO on and off, weights of σ 1 and 5, and lengths 1–60 with
// unknown feature ids, visited out of order so each call reuses a pool
// buffer sized by a different sentence. Posteriors and LogLikelihood agree
// with the 256-bit oracle to 1e-12·(1+|exact|); Decode is bit-identical to
// the seed Viterbi.
func TestPooledInferenceMatchesExact(t *testing.T) {
	for _, tc := range gradientCases(rand.New(rand.NewSource(23)), []float64{1, 5}, []int{7, 1, 25, 2, 60, 13, 3}) {
		m, in := tc.m, tc.in
		got, want := m.Posteriors(in), exactPosteriors(m, in)
		for i := range want {
			for y := range want[i] {
				if math.Abs(got[i][y]-want[i][y]) > 1e-12*(1+math.Abs(want[i][y])) {
					t.Fatalf("%s: Posteriors[%d][%d] = %.17g, exact %.17g", tc.name, i, y, got[i][y], want[i][y])
				}
			}
		}
		if gl, wl := m.LogLikelihood(in), exactLogLikelihood(m, in); math.Abs(gl-wl) > 1e-12*(1+math.Abs(wl)) {
			t.Fatalf("%s: LogLikelihood = %.17g, exact %.17g", tc.name, gl, wl)
		}
		gt, wt := m.Decode(in), referenceDecode(m, in)
		for i := range wt {
			if gt[i] != wt[i] {
				t.Fatalf("%s: Decode[%d] = %v, seed %v", tc.name, i, gt[i], wt[i])
			}
		}
	}
}

func TestDecodeWithPotentialsPooledDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trans := [][]float64{{0.8, 0.2, 0}, {0.3, 0.3, 0.4}, {0.5, 0.2, 0.3}}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		pot := make([][]float64, n)
		for i := range pot {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			pot[i] = []float64{a, b - a, 1 - b}
		}
		first, err := DecodeWithPotentialsT(pot, trans, true, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		// Re-decoding with a warmed pool must be byte-identical.
		second, err := DecodeWithPotentialsT(pot, trans, true, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("trial %d: decode not deterministic at %d: %v vs %v", trial, i, first[i], second[i])
			}
		}
	}
}

// TestPooledInferenceConcurrent hammers the pooled paths from many
// goroutines, demanding the results of serial calls made before they
// start; with -race this verifies scratch buffers are never shared.
func TestPooledInferenceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nf = 40
	m := randomModel(rng, Order2, nf, true)
	ins := make([]*Instance, 16)
	wantPost := make([][][]float64, len(ins))
	wantTags := make([][]corpus.Tag, len(ins))
	for i := range ins {
		ins[i] = randomInstance(rng, 1+rng.Intn(20), nf, false)
		wantPost[i] = m.Posteriors(ins[i])
		wantTags[i] = referenceDecode(m, ins[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(ins)
				post := m.Posteriors(ins[i])
				for p := range post {
					for y := range post[p] {
						if post[p][y] != wantPost[i][p][y] {
							t.Errorf("concurrent Posteriors mismatch at instance %d", i)
							return
						}
					}
				}
				tags := m.Decode(ins[i])
				for p := range tags {
					if tags[p] != wantTags[i][p] {
						t.Errorf("concurrent Decode mismatch at instance %d", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// referenceCompileSentence compiles a sentence the seed way: one Position
// call and one feature-id slice per token.
func referenceCompileSentence(c *Compiler, s *corpus.Sentence) *Instance {
	words := s.Words()
	in := &Instance{Features: make([][]int32, len(words)), Tags: s.Tags}
	for i := range words {
		var ids []int32
		for _, f := range c.Extractor.Position(words, i) {
			if id := c.Alphabet.Lookup(f); id >= 0 {
				ids = append(ids, int32(id))
			}
		}
		in.Features[i] = ids
	}
	return in
}

func TestCompileSentenceMatchesSeed(t *testing.T) {
	sentences := []string{
		"Recently the mutation of lymphocyte adaptor protein LNK was detected",
		"the FLT3 gene in AML patients",
		"x",
		"p53 regulates SH2 domain binding II",
	}
	comp := NewCompiler(features.NewExtractor(nil))
	var want []*Instance
	for _, text := range sentences {
		s := &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)}
		// Reference first so it populates the growing alphabet in the same
		// first-seen order the fast path would have.
		want = append(want, referenceCompileSentence(comp, s))
	}
	check := func(frozen bool) {
		for si, text := range sentences {
			s := &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)}
			got := comp.CompileSentence(s)
			if got.Len() != want[si].Len() {
				t.Fatalf("frozen=%v sentence %d: %d positions, want %d", frozen, si, got.Len(), want[si].Len())
			}
			for i := range want[si].Features {
				if len(got.Features[i]) != len(want[si].Features[i]) {
					t.Fatalf("frozen=%v sentence %d pos %d: %d ids, want %d",
						frozen, si, i, len(got.Features[i]), len(want[si].Features[i]))
				}
				for j := range want[si].Features[i] {
					if got.Features[i][j] != want[si].Features[i][j] {
						t.Fatalf("frozen=%v sentence %d pos %d id %d: %d, want %d",
							frozen, si, i, j, got.Features[i][j], want[si].Features[i][j])
					}
				}
			}
		}
	}
	check(false)
	comp.FreezeAlphabet()
	check(true)

	// Unknown features on the frozen alphabet are dropped, not compiled.
	s := &corpus.Sentence{Text: "zzznovel qqqunseen", Tokens: tokenize.Sentence("zzznovel qqqunseen")}
	got := comp.CompileSentence(s)
	ref := referenceCompileSentence(comp, s)
	for i := range ref.Features {
		if len(got.Features[i]) != len(ref.Features[i]) {
			t.Fatalf("frozen unknown handling differs at pos %d: %d vs %d ids",
				i, len(got.Features[i]), len(ref.Features[i]))
		}
	}
}
