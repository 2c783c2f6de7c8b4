package crf

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/features"
)

// serialCompile is Compile as it was before it ran in blocks: every
// sentence through CompileSentence, one after another.
func serialCompile(c *Compiler, corp *corpus.Corpus) []*Instance {
	out := make([]*Instance, len(corp.Sentences))
	for i, s := range corp.Sentences {
		out[i] = c.CompileSentence(s)
	}
	return out
}

// TestCompileMatchesSerial pins the block-parallel Compile to the serial
// loop at GOMAXPROCS 1, 2, 3 and 8: the same alphabet in id order and the
// same feature ids at every position — into a fresh alphabet, into one
// that already holds features, and against a frozen one (unknown
// features dropped).
func TestCompileMatchesSerial(t *testing.T) {
	scfg := synth.DefaultConfig(synth.BC2GM, 31)
	scfg.Sentences = 120
	all := synth.NewGenerator(scfg).Generate()
	seed, corp := corpus.New(), corpus.New()
	seed.Sentences, corp.Sentences = all.Sentences[:20], all.Sentences[20:]
	ex := features.NewExtractor(nil)
	frozen := NewCompiler(ex)
	serialCompile(frozen, seed)
	frozen.FreezeAlphabet()
	cases := []struct {
		name string
		make func() *Compiler
	}{
		{"fresh", func() *Compiler { return NewCompiler(ex) }},
		{"seeded", func() *Compiler {
			c := NewCompiler(ex)
			serialCompile(c, seed)
			return c
		}},
		{"frozen", func() *Compiler { return &Compiler{Extractor: ex, Alphabet: frozen.Alphabet} }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		ref := tc.make()
		want := serialCompile(ref, corp)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			tag := fmt.Sprintf("%s/GOMAXPROCS=%d", tc.name, procs)
			c := tc.make()
			got := c.Compile(corp)
			if !slices.Equal(c.Alphabet.Names(), ref.Alphabet.Names()) {
				t.Fatalf("%s: alphabet differs from the serial compile's (%d vs %d features)", tag, c.Alphabet.Len(), ref.Alphabet.Len())
			}
			for i := range want {
				if !slices.Equal(got[i].Tags, want[i].Tags) || len(got[i].Features) != len(want[i].Features) {
					t.Fatalf("%s: sentence %d shape differs", tag, i)
				}
				for p := range want[i].Features {
					if !slices.Equal(got[i].Features[p], want[i].Features[p]) {
						t.Fatalf("%s: sentence %d position %d ids %v, serial %v", tag, i, p, got[i].Features[p], want[i].Features[p])
					}
				}
			}
		}
	}
}
