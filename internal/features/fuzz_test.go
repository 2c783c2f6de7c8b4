package features

import (
	"strings"
	"testing"

	"repro/internal/tokenize"
)

// FuzzExtractorMatchesReference pins the byte Visitor to the
// string-concatenating reference extractor: for tokenized arbitrary text,
// and for the raw space-split text (which keeps empty tokens and invalid
// UTF-8), every position must yield the reference's feature strings,
// byte for byte and in the same order, under every extractor
// configuration below. One Visitor serves every sentence and
// configuration, as a pooled one does, and the positions are visited both
// in order and in reverse, so the lazy per-word analysis is exercised in
// both directions.
func FuzzExtractorMatchesReference(f *testing.F) {
	seeds := []string{
		"Recently the mutation of lymphocyte adaptor protein LNK was detected",
		"\xff\xfe abc \xc3 T\xe2\x82cell \xed\xa0\x80",
		"a  b   c ",
		"",
		" ",
		"alpha Beta GAMMA kappaB NF-kappaB TNF-alpha",
		"II IV XL CCCC IIIII vi Ii",
		"X a 1 - é Ω ( ß",
		"p53 regulates SH2 domain binding in IL-2 studies",
		"Abeta42 ΑΒΓ İstanbul ǅ studies ies kisses walking bed FLT3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	lex := NewLexiconClasser([]string{"FLT3", "lymphocyte adaptor protein", "alpha", "II"})
	extractors := []*Extractor{
		NewExtractor(nil),
		{WindowSize: 2, CharNGrams: false},
		{WindowSize: 1, CharNGrams: true},
		{WindowSize: 3, CharNGrams: true},
		{WindowSize: 9, CharNGrams: true},
		NewExtractor(lex),
		NewExtractor(MultiClasser{lex, fakeClasser{}}),
	}
	var v Visitor
	f.Fuzz(func(t *testing.T, text string) {
		for _, words := range [][]string{tokenize.Words(text), strings.Split(text, " ")} {
			for ei, e := range extractors {
				want := make([][]string, len(words))
				for i := range words {
					want[i] = referenceAppendPosition(e, nil, words, i)
				}
				check := func(how string, i int, got []string) {
					t.Helper()
					if len(got) != len(want[i]) {
						t.Fatalf("%s, extractor %d, %q pos %d: %d features, reference %d\ngot  %q\nwant %q",
							how, ei, words, i, len(got), len(want[i]), got, want[i])
					}
					for k := range got {
						if got[k] != want[i][k] {
							t.Fatalf("%s, extractor %d, %q pos %d feature %d: %q, reference %q",
								how, ei, words, i, k, got[k], want[i][k])
						}
					}
				}
				visit := func(i int) []string {
					var got []string
					v.Position(i, func(f []byte) { got = append(got, string(f)) })
					return got
				}
				v.Reset(e, words)
				for i := range words {
					check("ascending", i, visit(i))
				}
				v.Reset(e, words)
				for i := len(words) - 1; i >= 0; i-- {
					check("descending", i, visit(i))
				}
				for i, got := range e.Sentence(words) {
					check("Sentence", i, got)
				}
			}
		}
	})
}
