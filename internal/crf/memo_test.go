package crf

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/features"
	"repro/internal/tokenize"
)

// sameIDs reports the first position where got's feature ids differ from
// want's, or -1.
func sameIDs(got, want *Instance) int {
	if len(got.Features) != len(want.Features) {
		return 0
	}
	for i := range want.Features {
		if !slices.Equal(got.Features[i], want.Features[i]) {
			return i
		}
	}
	return -1
}

// frozenCompiler compiles train into a fresh alphabet with ex, freezes it
// and returns a compiler over it whose word memo has not been used yet.
func frozenCompiler(ex *features.Extractor, train *corpus.Corpus) *Compiler {
	c := NewCompiler(ex)
	c.Compile(train)
	c.FreezeAlphabet()
	return &Compiler{Extractor: ex, Alphabet: c.Alphabet}
}

// memoSentences returns unseen BC2GM sentences plus hand-written ones with
// the cases the memo must keep exact: repeated words, case variants of one
// word, punctuation, digits, one- and two-token sentences.
func memoSentences(n int) []*corpus.Sentence {
	cfg := synth.DefaultConfig(synth.BC2GM, 17)
	cfg.Sentences = n
	out := synth.NewGenerator(cfg).Generate().Sentences
	for _, text := range []string{
		"x",
		"FLT3 .",
		"the the the THE The tHe",
		"IL-2 ( interleukin-2 ) activates NF-kappaB and p53 , alpha II 1998",
		"Mutations of the JAK2 kinase and of LNK were detected in 12 of 40 patients",
	} {
		out = append(out, &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)})
	}
	return out
}

// TestCompileMemoMatchesVisitor checks the frozen compile against the
// Visitor path (one alphabet lookup per feature Position emits) over
// window sizes 1, 3 and 9, character n-grams off, and the lexicon and
// stacked classers: every sentence compiled cold, warm, and after the
// other sentences have filled the memo.
func TestCompileMemoMatchesVisitor(t *testing.T) {
	scfg := synth.DefaultConfig(synth.BC2GM, 5)
	scfg.Sentences = 200
	train := synth.NewGenerator(scfg).Generate()
	var surfaces []string
	for _, s := range train.Sentences {
		for _, m := range s.Mentions() {
			surfaces = append(surfaces, m.Text)
		}
	}
	lex := features.NewLexiconClasser(surfaces)
	extractors := map[string]*features.Extractor{
		"window1":       {WindowSize: 1, CharNGrams: true},
		"window3":       {WindowSize: 3, CharNGrams: true},
		"window9":       {WindowSize: 9, CharNGrams: true},
		"no-char-ngram": {WindowSize: 2},
		"lexicon":       features.NewExtractor(lex),
		"multi":         features.NewExtractor(features.MultiClasser{lex, suffixClasser{}}),
	}
	sents := memoSentences(150)
	for name, ex := range extractors {
		t.Run(name, func(t *testing.T) {
			c := frozenCompiler(ex, train)
			for _, tag := range []string{"first pass", "second pass"} {
				for k, s := range sents {
					want := referenceCompileSentence(c, s)
					for rep := 0; rep < 2; rep++ {
						if p := sameIDs(c.CompileSentence(s), want); p >= 0 {
							t.Fatalf("%s, compile %d of sentence %d (%q) position %d: ids differ from the Visitor path", tag, rep+1, k, s.Text, p)
						}
					}
				}
			}
			if len(c.memo.words) == 0 {
				t.Fatal("the frozen compile left the word memo empty")
			}
		})
	}
}

// suffixClasser gives every word a class named after its last byte, so
// every word, seen or unseen, has a class feature.
type suffixClasser struct{}

func (suffixClasser) Classes(word string) []string {
	if word == "" {
		return nil
	}
	return []string{"suf=" + word[len(word)-1:], "len=" + fmt.Sprint(len(word)%4)}
}

// TestCompileMemoConcurrent compiles overlapping sentences from many
// goroutines on one frozen compiler, so words enter the memo while other
// goroutines read it; every instance must equal the Visitor path's. Run
// under -race it also checks the memo's locking.
func TestCompileMemoConcurrent(t *testing.T) {
	scfg := synth.DefaultConfig(synth.BC2GM, 9)
	scfg.Sentences = 150
	ex := features.NewExtractor(features.MultiClasser{suffixClasser{}})
	c := frozenCompiler(ex, synth.NewGenerator(scfg).Generate())
	sents := memoSentences(120)
	want := make([]*Instance, len(sents))
	for k, s := range sents {
		want[k] = referenceCompileSentence(c, s)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different sentence and walks the
			// list twice, so the sentences overlap across goroutines.
			for r := 0; r < 2*len(sents); r++ {
				k := (g*len(sents)/goroutines + r) % len(sents)
				if p := sameIDs(c.CompileSentence(sents[k]), want[k]); p >= 0 {
					t.Errorf("goroutine %d sentence %d position %d: ids differ from the Visitor path", g, k, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCompileMemoBound feeds 512 case variants of one word, far more
// distinct words than the memo's limit, and checks that the memo stays
// within the limit and that every sentence still compiles exactly.
func TestCompileMemoBound(t *testing.T) {
	train := corpus.New()
	for _, text := range []string{
		"Recently the mutation of lymphocyte adaptor protein LNK was detected in MPN patients",
		"the FLT3 gene in AML patients carries an internal tandem duplication",
	} {
		train.Sentences = append(train.Sentences, &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)})
	}
	c := frozenCompiler(features.NewExtractor(nil), train)
	const word = "mutations"
	for mask := 0; mask < 1<<len(word); mask++ {
		var b strings.Builder
		for k, r := range word {
			if mask&(1<<k) != 0 {
				r -= 'a' - 'A'
			}
			b.WriteRune(r)
		}
		text := "the " + b.String() + " of LNK in " + b.String() + " patients"
		s := &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)}
		want := referenceCompileSentence(c, s)
		if p := sameIDs(c.CompileSentence(s), want); p >= 0 {
			t.Fatalf("variant %q position %d: ids differ from the Visitor path", b.String(), p)
		}
	}
	if c.memo.limit >= 1<<len(word) {
		t.Fatalf("limit %d leaves the variants room; the test needs a smaller one", c.memo.limit)
	}
	if n := len(c.memo.words); n > c.memo.limit || n == 0 {
		t.Fatalf("memo holds %d words, limit %d", n, c.memo.limit)
	}
	// The limit is the alphabet's distinct lower-case training words.
	if want := c.Alphabet.CountPrefix("w="); c.memo.limit != want {
		t.Fatalf("limit %d, want the %d \"w=\" features", c.memo.limit, want)
	}
}

// BenchmarkCompileSentence compiles the 300 held-out sentences of
// benchData's corpus against its frozen 900-sentence alphabet: "cold"
// starts every pass with an empty word memo, "warm" reuses one compiler
// whose memo has seen the sentences. It reports the time per sentence.
func BenchmarkCompileSentence(b *testing.B) {
	cfg := synth.DefaultConfig(synth.BC2GM, 3)
	cfg.Sentences = 1200
	train, test := synth.GenerateSplit(cfg)
	ex := features.NewExtractor(nil)
	comp := NewCompiler(ex)
	comp.Compile(train)
	comp.FreezeAlphabet()
	run := func(b *testing.B, compiler func() *Compiler) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := compiler()
			for _, s := range test.Sentences {
				c.CompileSentence(s)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(test.Sentences)), "ns/sentence")
	}
	b.Run("cold", func(b *testing.B) {
		run(b, func() *Compiler { return &Compiler{Extractor: ex, Alphabet: comp.Alphabet} })
	})
	b.Run("warm", func(b *testing.B) {
		c := &Compiler{Extractor: ex, Alphabet: comp.Alphabet}
		for _, s := range test.Sentences {
			c.CompileSentence(s)
		}
		run(b, func() *Compiler { return c })
	})
}
