// Package serving hosts the long-lived tagging service built on a frozen
// graphner.Artifact: a bounded-queue request server (Server) over an
// allocation-free per-sentence inference core (Tagger). The served labels
// are bit-identical to System.Test's for any sentence of the frozen
// corpus — the same α·P_s + (1−α)·X mixture decoded by the same tempered
// Viterbi, just with caller-owned buffers and precomputed tables.
package serving

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/graphner"
	"repro/internal/tokenize"
)

// ErrShortBuffer reports a tag buffer smaller than the sentence's token
// count. TagInto still returns the required count, so callers grow the
// buffer and retry.
var ErrShortBuffer = errors.New("serving: tag buffer too small")

// Tagger answers single-sentence tagging queries against a frozen
// artifact. All mutable per-request state lives in a Scratch, which is
// owned by exactly one worker at a time: a warm TagInto call — sentence
// already compiled, graph generation unchanged — performs zero heap
// allocations. The graph and belief state may be swapped atomically
// (Swap) for the streaming fold-in path; reads take the lock shared.
type Tagger struct {
	model    *crf.Model
	compiler *crf.Compiler
	decoder  *crf.PotentialDecoder
	alpha    float64

	// mu guards g, beliefs and generation. Request workers hold it
	// shared for the combine step; Swap holds it exclusively while the
	// streaming updater mutates the graph in place.
	mu         sync.RWMutex
	g          *graph.Graph
	beliefs    []float64
	generation uint64

	cacheCap int
}

// defaultCacheCap bounds the per-worker compiled-sentence cache when the
// configuration does not say otherwise.
const defaultCacheCap = 4096

// NewTagger builds a Tagger over the artifact's frozen model, alphabet,
// graph and beliefs. extractor must match the training-time feature
// configuration (nil means the plain BANNER-style extractor). cacheCap
// bounds each worker's compiled-sentence cache (0 means a default).
func NewTagger(art *graphner.Artifact, extractor *features.Extractor, cacheCap int) (*Tagger, error) {
	if art.Model() == nil {
		return nil, fmt.Errorf("serving: artifact has no model")
	}
	cfg := art.Config()
	dec, err := crf.NewPotentialDecoder(art.Transitions(), art.Model().BIO, cfg.TransitionPower)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	if cacheCap <= 0 {
		cacheCap = defaultCacheCap
	}
	return &Tagger{
		model:    art.Model(),
		compiler: art.NewCompiler(extractor),
		decoder:  dec,
		alpha:    cfg.Alpha,
		g:        art.Graph(),
		beliefs:  art.Beliefs(),
		cacheCap: cacheCap,
	}, nil
}

// Swap atomically replaces the graph/belief state: update runs under the
// exclusive lock (so it may mutate the current graph in place, as the
// streaming updater does) and returns the state to serve from next. The
// generation counter invalidates every cached vertex-id table.
func (t *Tagger) Swap(update func() (*graph.Graph, []float64, error)) error {
	t.mu.Lock()
	g, x, err := update()
	if err == nil {
		t.g, t.beliefs = g, x
		t.generation++
	}
	t.mu.Unlock()
	return err
}

// Generation returns the current graph/belief generation (starts at 0,
// incremented by every successful Swap).
func (t *Tagger) Generation() uint64 {
	t.mu.RLock()
	gen := t.generation
	t.mu.RUnlock()
	return gen
}

// cachedSentence is one compiled request: the feature-compiled instance
// plus the per-position graph vertex ids, valid for generation
// (genUnresolved until the first combine resolves them under the read
// lock).
type cachedSentence struct {
	ins        *crf.Instance
	words      []string
	verts      []int32
	generation uint64
}

// genUnresolved marks a cache entry whose vertex ids have not been
// resolved against any graph generation yet. Generations count up from
// zero, so the sentinel is unreachable.
const genUnresolved = ^uint64(0)

// Scratch is the per-worker request state: the compiled-sentence cache
// and the flat posterior/combined-potential buffers. A Scratch must not
// be used concurrently; each server worker owns one.
type Scratch struct {
	t     *Tagger
	cache map[string]*cachedSentence
	post  []float64 // flat CRF posteriors P_s
	comb  []float64 // flat combined potentials P'_s
}

// NewScratch creates worker-local request state.
func (t *Tagger) NewScratch() *Scratch {
	return &Scratch{t: t, cache: make(map[string]*cachedSentence, t.cacheCap)}
}

// compiled returns the cached compilation of text, compiling (and
// evicting wholesale at the cap) on miss.
func (sc *Scratch) compiled(text string) *cachedSentence {
	if ent, ok := sc.cache[text]; ok {
		return ent
	}
	if len(sc.cache) >= sc.t.cacheCap {
		clear(sc.cache)
	}
	sent := &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)}
	words := sent.Words()
	ent := &cachedSentence{
		ins:        sc.t.compiler.CompileSentence(sent),
		words:      words,
		verts:      make([]int32, len(words)),
		generation: genUnresolved,
	}
	sc.cache[text] = ent
	return ent
}

// grow ensures both flat buffers hold n values.
//
//graphner:noalloc capacity-guarded growth is justified below; warm requests reuse the buffers
func (sc *Scratch) grow(n int) {
	if cap(sc.post) < n {
		sc.post = make([]float64, n) // lint:checked noalloc: capacity-guarded growth on first sight of a longer sentence; TestServingAllocGuard pins warm requests at zero
		sc.comb = make([]float64, n) // lint:checked noalloc: grown together with post above
	}
	sc.post = sc.post[:n]
	sc.comb = sc.comb[:n]
}

// TagInto labels one sentence, writing the BIO tags into tags and
// returning the token count. If tags is too small the count is returned
// with ErrShortBuffer and nothing is written. sc must be this worker's
// Scratch. The pipeline is Algorithm 1 lines 8-9 against the frozen
// state: CRF posteriors, mixture with the propagated vertex beliefs
// (positions whose 3-gram is not a graph vertex keep the raw posterior),
// tempered Viterbi. This is the serving warm request path: on a cache
// hit with resolved vertices it allocates nothing (TestServingAllocGuard
// measures it, the contract linter proves it).
//
//graphner:noalloc warm path; cache misses and generation re-resolution are justified inline
func (t *Tagger) TagInto(sc *Scratch, text string, tags []corpus.Tag) (int, error) {
	const Y = corpus.NumTags
	ent := sc.compiled(text) // lint:checked noalloc: warm requests hit the compiled-sentence cache; a miss compiles once and is amortized by reuse
	n := ent.ins.Len()
	if n == 0 {
		return 0, nil
	}
	if len(tags) < n {
		return n, ErrShortBuffer
	}
	sc.grow(n * Y)
	if err := t.model.PosteriorsInto(ent.ins, sc.post); err != nil {
		return n, err
	}

	t.mu.RLock()
	if ent.generation != t.generation {
		for i := range ent.words {
			ent.verts[i] = int32(t.g.Lookup(corpus.Trigram(ent.words, i))) // lint:checked noalloc: trigram keys are rebuilt only once per graph swap per cached sentence, not per request
		}
		ent.generation = t.generation
	}
	for i := 0; i < n; i++ {
		row := i * Y
		if v := ent.verts[i]; v >= 0 {
			b := int(v) * Y
			for y := 0; y < Y; y++ {
				sc.comb[row+y] = t.alpha*sc.post[row+y] + (1-t.alpha)*t.beliefs[b+y]
			}
		} else {
			copy(sc.comb[row:row+Y], sc.post[row:row+Y])
		}
	}
	t.mu.RUnlock()

	if err := t.decoder.DecodeFlat(sc.comb, n, tags); err != nil {
		return n, err
	}
	return n, nil
}
