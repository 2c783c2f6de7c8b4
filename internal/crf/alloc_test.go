package crf

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/race"
	"repro/internal/tokenize"
)

// TestDecodeAllocGuard locks in the pooled-lattice win: after the pool is
// warm, Decode's only steady-state allocation is the returned tag slice.
// testing.AllocsPerRun reports the average allocations per call; if a
// refactor reintroduces per-call lattice matrices this fails tier 1
// instead of silently regressing.
func TestDecodeAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	rng := rand.New(rand.NewSource(41))
	const nf = 30
	m := randomModel(rng, Order2, nf, true)
	ins := make([]*Instance, 8)
	for i := range ins {
		ins[i] = randomInstance(rng, 4+i*3, nf, false)
	}
	// Warm the pool across the length range the measured loop uses.
	for _, in := range ins {
		m.Decode(in)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		m.Decode(ins[i%len(ins)])
		i++
	})
	// One allocation for the returned []corpus.Tag; everything else
	// (emission, delta, backpointer matrices) comes from the pool.
	if allocs > 1 {
		t.Fatalf("pooled Decode allocates %.1f objects/op after warm-up, want ≤ 1", allocs)
	}
}

// TestPosteriorsAllocGuard pins the pooled Posteriors path: steady-state
// allocations are the returned rows only (the slice of row headers and
// their flat backing), independent of the lattice size.
func TestPosteriorsAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	rng := rand.New(rand.NewSource(43))
	const nf = 30
	const n = 12
	m := randomModel(rng, Order2, nf, true)
	in := randomInstance(rng, n, nf, false)
	for i := 0; i < 4; i++ {
		m.Posteriors(in)
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Posteriors(in)
	})
	if allocs > 2 {
		t.Fatalf("pooled Posteriors allocates %.1f objects/op after warm-up, want ≤ 2", allocs)
	}
}

// TestCompileSentenceAllocGuard pins the frozen compile path: once every
// word of a 23-token sentence is in the compiler's word memo, compiling it
// allocates the Instance, its per-position id slices and their flat
// backing array — 3 objects, none per word or per feature. Analysing the
// words afresh costs one lower-case string per word with capitals (8
// objects here); extracting one string per feature, as the compiler once
// did, costs 926.
func TestCompileSentenceAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	train := []string{
		"Recently the mutation of lymphocyte adaptor protein LNK was detected in MPN patients",
		"the FLT3 gene in AML patients carries an internal tandem duplication",
		"p53 regulates SH2 domain binding of the IL-2 receptor alpha chain",
	}
	comp := NewCompiler(features.NewExtractor(nil))
	for _, text := range train {
		comp.CompileSentence(&corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)})
	}
	comp.FreezeAlphabet()
	const text = "Mutations of the JAK2 kinase and of LNK were detected in 12 of 40 patients with myeloproliferative neoplasms ( MPN ) ."
	s := &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)}
	if n := len(s.Tokens); n != 23 {
		t.Fatalf("sentence has %d tokens, the bound below assumes 23", n)
	}
	comp.CompileSentence(s) // warm the scratch pool and the word memo
	allocs := testing.AllocsPerRun(200, func() { comp.CompileSentence(s) })
	t.Logf("CompileSentence: %.0f allocs for %d tokens", allocs, len(s.Tokens))
	if allocs > 3 {
		t.Fatalf("frozen CompileSentence allocates %.0f objects for %d tokens, want ≤ 3", allocs, len(s.Tokens))
	}
}
