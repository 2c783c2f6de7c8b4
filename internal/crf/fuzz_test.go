package crf

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/tokenize"
)

// FuzzCompileSentence feeds arbitrary sentence text through the pooled
// flat-backed compiler and the seed reference implementation on two
// separate (identically fresh) compilers, demanding identical feature-id
// sequences: once while the alphabet is growing, then on the frozen
// alphabet twice — the word memo cold, then warm — and for a second
// sentence that reuses some of the first one's words after them.
func FuzzCompileSentence(f *testing.F) {
	seeds := []string{
		"Recently the mutation of lymphocyte adaptor protein LNK was detected",
		"the FLT3 gene in AML patients",
		"x",
		"p53 regulates SH2 domain binding II",
		"IL-2 (interleukin-2) activates NF-kappaB",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s := &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)}
		second := "the " + text + " gene , " + text
		s2 := &corpus.Sentence{Text: second, Tokens: tokenize.Sentence(second)}
		fast := NewCompiler(features.NewExtractor(nil))
		ref := NewCompiler(features.NewExtractor(nil))
		for round, sent := range []*corpus.Sentence{s, s, s, s2} {
			got := fast.CompileSentence(sent)
			want := referenceCompileSentence(ref, sent)
			if got.Len() != want.Len() {
				t.Fatalf("round %d of %q: %d positions, want %d", round, sent.Text, got.Len(), want.Len())
			}
			for i := range want.Features {
				if len(got.Features[i]) != len(want.Features[i]) {
					t.Fatalf("round %d of %q pos %d: %d ids, want %d",
						round, sent.Text, i, len(got.Features[i]), len(want.Features[i]))
				}
				for j := range want.Features[i] {
					if got.Features[i][j] != want.Features[i][j] {
						t.Fatalf("round %d of %q pos %d id %d: %d, want %d",
							round, sent.Text, i, j, got.Features[i][j], want.Features[i][j])
					}
				}
			}
			if round == 0 {
				fast.FreezeAlphabet()
				ref.FreezeAlphabet()
			}
		}
	})
}
