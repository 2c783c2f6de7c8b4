package crf

import (
	"runtime"
	"slices"
	"strings"
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
// alphabet is read-only, the word memo (see wordMemo) is locked, and the
// per-call scratch buffers come from a pool. Once the alphabet is frozen
// and a sentence has been compiled, Extractor and Alphabet must not change:
// the memo holds ids derived from both.
type Compiler struct {
	Extractor *features.Extractor
	Alphabet  *features.Alphabet

	memoOnce sync.Once
	memo     *wordMemo // built by the first CompileSentence on a frozen alphabet
}

// compileScratch holds the per-worker buffers CompileSentence reuses: the
// feature visitor, the sentence's words, their memo entries, the
// per-position id counts, a bigram feature and a word's ids.
type compileScratch struct {
	v      features.Visitor
	words  []string
	ents   []*wordIDs
	lens   []int
	bigram []byte
	ids    []int32
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
//
// On a frozen alphabet the ids are assembled from the word memo's
// per-word blocks; the ids and their order are those of looking up every
// feature features.Visitor.Position emits, which is what an unfrozen
// alphabet still does.
func (c *Compiler) CompileSentence(s *corpus.Sentence) *Instance {
	sc := compileScratchPool.Get().(*compileScratch)
	sc.words = sc.words[:0]
	for _, t := range s.Tokens {
		sc.words = append(sc.words, t.Text)
	}
	n := len(sc.words)
	if cap(sc.lens) < n {
		sc.lens = make([]int, n)
	}
	lens := sc.lens[:n]
	var flat []int32
	if c.Alphabet.Frozen() {
		c.memoOnce.Do(func() { c.memo = newWordMemo(c.Extractor, c.Alphabet) })
		flat = c.memo.compile(c, sc, lens)
	} else {
		flat = make([]int32, 0, 48*n)
		sc.v.Reset(c.Extractor, sc.words)
		for i := range lens {
			k := len(flat)
			sc.v.Position(i, func(f []byte) {
				if id := c.Alphabet.LookupBytes(f); id >= 0 {
					flat = append(flat, int32(id))
				}
			})
			lens[i] = len(flat) - k
		}
	}
	// Slice the per-position views only after the flat buffer has stopped
	// growing (append may reallocate the backing array).
	in := &Instance{Features: make([][]int32, n), Tags: s.Tags}
	pos := 0
	for i, k := range lens {
		in.Features[i] = flat[pos : pos+k : pos+k]
		pos += k
	}
	clear(sc.words) // drop references to the caller's token texts
	compileScratchPool.Put(sc)
	return in
}

// wordMemo caches, per exact word, the interned ids of the feature groups
// of features.Visitor that depend on that word alone: its Word block, its
// Window block at every offset and, with a Classer, its Classes at offsets
// −1, 0 and +1. Every feature of a position except the two bigrams lies in
// one such group (or is a sentence-boundary feature, whose ids the memo
// holds once), so a sentence whose words are all in the memo is compiled
// with one map lookup per word plus the bigrams' alphabet lookups, where
// the Visitor path hashes ~40 features per token. The ids are exact: a
// group's features are a function of the word, the offset and the
// extractor alone, the frozen alphabet maps each to a fixed id (or drops
// it), and Position emits the groups in the order compile concatenates
// them.
//
// Words enter lazily, on first sight, until the memo holds limit of them;
// after that a word not in it is analysed afresh by the Visitor in every
// sentence it appears in. limit is the number of "w=" features of the
// alphabet — the distinct lower-case training words — so the memo holds
// no more words than the model's vocabulary, however much unseen text
// passes through.
type wordMemo struct {
	window   int       // the extractor's window half-width W
	groups   int       // group count of an entry: 2W+1, plus 3 with a Classer
	classes  bool      // the extractor has a Classer
	boundary [][]int32 // boundary[d+W]: ids of the boundary feature at offset d
	limit    int

	mu    sync.RWMutex
	words map[string]*wordIDs
}

// wordIDs is one word's memo entry. Group g is ids[end[g-1]:end[g]]
// (end[-1] being 0): g = d+W for the Window block at offset d, the Word
// block at g = W (d = 0), and the Classes at offset d at g = 2W+2+d.
type wordIDs struct {
	lower string // the word's lower-case form, for the bigrams
	ids   []int32
	end   []int32
}

func (e *wordIDs) group(g int) []int32 {
	lo := int32(0)
	if g > 0 {
		lo = e.end[g-1]
	}
	return e.ids[lo:e.end[g]]
}

// newWordMemo builds an empty memo for ex over the frozen alphabet a.
func newWordMemo(ex *features.Extractor, a *features.Alphabet) *wordMemo {
	w := ex.WindowWidth()
	m := &wordMemo{
		window:   w,
		groups:   2*w + 1,
		classes:  ex.Classer != nil,
		boundary: make([][]int32, 2*w+1),
		limit:    a.CountPrefix("w="),
		words:    make(map[string]*wordIDs),
	}
	if m.classes {
		m.groups += 3
	}
	var v features.Visitor
	v.Reset(ex, nil)
	for d := -w; d <= w; d++ {
		if d != 0 {
			v.Boundary(d, func(f []byte) { m.boundary[d+w] = appendID(m.boundary[d+w], a, f) })
		}
	}
	return m
}

// appendID appends f's id in a to ids, or nothing for an unknown feature.
func appendID(ids []int32, a *features.Alphabet, f []byte) []int32 {
	if id := a.LookupBytes(f); id >= 0 {
		ids = append(ids, int32(id))
	}
	return ids
}

// entry computes the memo entry of sc.words[j]; sc.v must be Reset to
// sc.words.
func (m *wordMemo) entry(sc *compileScratch, a *features.Alphabet, j int) *wordIDs {
	e := &wordIDs{lower: sc.v.Lower(j), end: make([]int32, m.groups)}
	ids := sc.ids[:0]
	add := func(f []byte) { ids = appendID(ids, a, f) }
	for g := range e.end {
		switch d := g - m.window; {
		case d == 0:
			sc.v.Word(j, add)
		case d <= m.window:
			sc.v.Window(j, d, add)
		default:
			sc.v.Classes(j, g-2*m.window-2, add)
		}
		e.end[g] = int32(len(ids))
	}
	e.ids = slices.Clone(ids)
	sc.ids = ids
	return e
}

// compile fills lens with the per-position id counts of sc.words and
// returns their ids, position after position.
func (m *wordMemo) compile(c *Compiler, sc *compileScratch, lens []int) []int32 {
	words, n, w := sc.words, len(sc.words), m.window
	if cap(sc.ents) < n {
		sc.ents = make([]*wordIDs, n)
	}
	ents := sc.ents[:n]
	missing := false
	m.mu.RLock()
	for j, word := range words {
		ents[j] = m.words[word]
		missing = missing || ents[j] == nil
	}
	m.mu.RUnlock()
	if missing {
		sc.v.Reset(c.Extractor, words)
		for j := range ents {
			if ents[j] == nil {
				ents[j] = m.entry(sc, c.Alphabet, j)
			}
		}
		m.mu.Lock()
		for j, word := range words {
			if _, ok := m.words[word]; !ok && len(m.words) < m.limit {
				// A token's text is a substring of its sentence: copy it,
				// so the memo does not keep whole request texts alive.
				// The lower-case form is a new string unless the word
				// already was lower-case.
				key := strings.Clone(word)
				if ents[j].lower == word {
					ents[j].lower = key
				}
				m.words[key] = ents[j]
			}
		}
		m.mu.Unlock()
	}

	// An upper bound on the sentence's ids: each group of each word is
	// used at most once, the boundary feature at offset d by at most |d|
	// positions, and there are 2(n−1) bigrams.
	size := 2 * n
	for _, e := range ents {
		size += len(e.ids)
	}
	for d := 1; d <= w; d++ {
		size += d * (len(m.boundary[w-d]) + len(m.boundary[w+d]))
	}
	flat := make([]int32, 0, size)
	b := sc.bigram
	for i := range ents {
		k := len(flat)
		flat = append(flat, ents[i].group(w)...)
		for d := -w; d <= w; d++ {
			switch j := i + d; {
			case d == 0:
			case j < 0 || j >= n:
				flat = append(flat, m.boundary[d+w]...)
			default:
				flat = append(flat, ents[j].group(d+w)...)
			}
		}
		if i > 0 {
			b = features.AppendBigram(b[:0], -1, ents[i-1].lower, ents[i].lower)
			flat = appendID(flat, c.Alphabet, b)
		}
		if i+1 < n {
			b = features.AppendBigram(b[:0], +1, ents[i].lower, ents[i+1].lower)
			flat = appendID(flat, c.Alphabet, b)
		}
		if m.classes {
			flat = append(flat, ents[i].group(2*w+2)...)
			if i > 0 {
				flat = append(flat, ents[i-1].group(2*w+1)...)
			}
			if i+1 < n {
				flat = append(flat, ents[i+1].group(2*w+3)...)
			}
		}
		lens[i] = len(flat) - k
	}
	sc.bigram = b
	clear(ents) // the memo may not have kept every entry; let those be freed
	return flat
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
		bc := c
		if local != c.Alphabet {
			bc = &Compiler{Extractor: c.Extractor, Alphabet: local}
		}
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
