package crf

import (
	"runtime"
	"sync"

	"repro/internal/corpus"
	"repro/internal/features"
)

// Compiler turns corpus sentences into CRF instances by running a feature
// extractor and interning feature strings in a shared alphabet. Compile the
// training corpus first, then Freeze the alphabet (directly or via
// FreezeAlphabet) before compiling test data, so unseen feature instances
// map to no-ops rather than growing the parameter space.
//
// CompileSentence on a frozen alphabet is safe for concurrent use: the
// alphabet is read-only and the per-call scratch buffers come from a pool.
type Compiler struct {
	Extractor *features.Extractor
	Alphabet  *features.Alphabet
}

// compileScratch holds the per-worker buffers CompileSentence reuses: the
// feature visitor and the per-position id counts of one sentence.
type compileScratch struct {
	v    features.Visitor
	lens []int
}

var compileScratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

// NewCompiler creates a compiler with a fresh alphabet.
func NewCompiler(ex *features.Extractor) *Compiler {
	return &Compiler{Extractor: ex, Alphabet: features.NewAlphabet()}
}

// CompileSentence compiles one sentence. Unknown features on a frozen
// alphabet are dropped. The feature ids of all positions share one flat
// backing array: two allocations per sentence (plus the Instance itself)
// instead of one per position.
func (c *Compiler) CompileSentence(s *corpus.Sentence) *Instance {
	words := s.Words()
	in := &Instance{
		Features: make([][]int32, len(words)),
		Tags:     s.Tags,
	}
	sc := compileScratchPool.Get().(*compileScratch)
	if cap(sc.lens) < len(words) {
		sc.lens = make([]int, len(words))
	}
	lens := sc.lens[:len(words)]
	flat := make([]int32, 0, 48*len(words))
	sc.v.Reset(c.Extractor, words)
	for i := range words {
		n := 0
		sc.v.Position(i, func(f []byte) {
			if id := c.Alphabet.LookupBytes(f); id >= 0 {
				flat = append(flat, int32(id))
				n++
			}
		})
		lens[i] = n
	}
	// Slice the per-position views only after the flat buffer has stopped
	// growing (append may reallocate the backing array).
	pos := 0
	for i, n := range lens {
		in.Features[i] = flat[pos : pos+n : pos+n]
		pos += n
	}
	compileScratchPool.Put(sc)
	return in
}

// Compile compiles every sentence of the corpus on up to GOMAXPROCS
// goroutines. Blocks of sentences intern into block-local alphabets that
// features.InternBlocks merges in order, so the instances and the
// alphabet's ids are exactly those of compiling the sentences one after
// another.
func (c *Compiler) Compile(corp *corpus.Corpus) []*Instance {
	out := make([]*Instance, len(corp.Sentences))
	workers := runtime.GOMAXPROCS(0)
	remap := features.InternBlocks(c.Alphabet, len(out), workers, func(b, lo, hi int, local *features.Alphabet) {
		bc := &Compiler{Extractor: c.Extractor, Alphabet: local}
		for i := lo; i < hi; i++ {
			out[i] = bc.CompileSentence(corp.Sentences[i])
		}
	})
	features.ForBlocks(len(out), workers, func(b, lo, hi int) {
		m := remap[b]
		if m == nil {
			return
		}
		for _, in := range out[lo:hi] {
			for _, ids := range in.Features {
				for k, id := range ids {
					ids[k] = m[id]
				}
			}
		}
	})
	return out
}

// FreezeAlphabet freezes the underlying alphabet and returns its size,
// which is the numFeatures argument for Trainer.Train.
func (c *Compiler) FreezeAlphabet() int {
	c.Alphabet.Freeze()
	return c.Alphabet.Len()
}
