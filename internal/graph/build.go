package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/tokenize"
)

// FeatureMode selects the vertex representation of the paper's Table III.
type FeatureMode int

const (
	// AllFeatures uses every feature the BANNER-style extractor produces
	// at the 3-gram's center position.
	AllFeatures FeatureMode = iota
	// LexicalFeatures uses only the lemmas of the words in a window of
	// length 5 around the center position.
	LexicalFeatures
	// MIFeatures uses the subset of AllFeatures whose mutual information
	// with the tagger-assigned BIO tag exceeds MIThreshold.
	MIFeatures
)

func (m FeatureMode) String() string {
	switch m {
	case LexicalFeatures:
		return "Lexical-features"
	case MIFeatures:
		return "MI-features"
	}
	return "All-features"
}

// Stats is the frozen corpus-level side of the vertex representation: the
// feature alphabet, the per-feature and grand co-occurrence totals, and (in
// MIFeatures mode) the selected feature set. PPMI is a corpus-level
// statistic — pmi(v,f) = log(c(v,f)·N / (c(v)·c(f))) — so a vertex's vector
// is only a local function of its own counts once N and c(f) are pinned.
// Freezing the snapshot taken from a base corpus is what makes incremental
// maintenance tractable: under frozen statistics, adding sentences changes
// exactly the vectors of the 3-grams that occur in them. Features unseen in
// the base corpus are outside the frozen feature space and are ignored,
// mirroring frozen-vocabulary streaming retrieval systems.
type Stats struct {
	alphabet  *features.Alphabet
	featTotal []float64
	grand     float64
	miKeep    map[string]bool
	mode      FeatureMode
}

// NumFeatures returns the size of the frozen feature space.
func (s *Stats) NumFeatures() int { return s.alphabet.Len() }

// Grand returns the grand co-occurrence total N of the snapshot.
func (s *Stats) Grand() float64 { return s.grand }

// BuilderConfig controls graph construction.
type BuilderConfig struct {
	// K is the out-degree of the k-NN graph (default 10, paper's default).
	K int
	// Mode selects the vertex representation.
	Mode FeatureMode
	// MIThreshold filters features in MIFeatures mode (e.g. 0.005, 0.01).
	MIThreshold float64
	// Tags supplies per-sentence BIO tags, parallel to the corpus
	// sentences, for MIFeatures mode. Typically the base CRF's decoded
	// output (train gold tags also work).
	Tags [][]corpus.Tag
	// Extractor provides the feature set for AllFeatures/MIFeatures
	// (default: plain BANNER-style extractor).
	Extractor *features.Extractor
	// MaxDF drops features occurring at more than this many vertices from
	// the k-NN search: a capped feature generates no candidates and adds
	// nothing to dot products, but still counts in the vector norms. 0
	// means no cap. High-document-frequency features generate enormous
	// candidate lists, so capping them cuts the search cost — but it
	// changes the graph: on a 600-sentence BC2GM corpus MaxDF 2000 keeps
	// the uncapped neighbour set in 97.4% of rows and MaxDF 500 in 80.4%,
	// and weights differ in most rows (BenchmarkAblation_KNNMaxDF).
	MaxDF int
	// Workers bounds the parallelism of the k-NN search (default
	// GOMAXPROCS).
	Workers int
	// Shards is ignored. The graph never depended on it, so ignoring it
	// is exact.
	//
	// Deprecated: the sharded builder was removed; set Workers instead.
	Shards int
	// Stats, when non-nil, freezes the corpus-level statistics of the PPMI
	// transform to a snapshot taken from an earlier corpus: the feature
	// alphabet stops growing (features unseen in the snapshot corpus are
	// ignored), featTotal and the grand total are not re-accumulated, and
	// MIFeatures mode reuses the snapshot's selected features (so Tags is
	// not required). This is the contract the incremental Updater
	// maintains: Build(union, cfg with the base snapshot) is exactly the
	// graph an Updater seeded on the base corpus converges to after
	// streaming in the remainder.
	Stats *Stats
	// GraphMode selects the nearest-neighbour search algorithm:
	// ModeExact (the default) runs the exact inverted-index merge;
	// ModeLSH runs banded random-hyperplane locality-sensitive hashing
	// with exact cosine re-ranking — the remedy for the construction
	// scalability the paper's conclusion flags as an open problem.
	// Recall is high but not perfect; see Recall, BENCH_lsh.json, and
	// the graph package tests.
	GraphMode GraphMode
	// LSH tunes the approximate search when GraphMode is ModeLSH.
	LSH LSHConfig
}

// Build constructs the 3-gram similarity graph over the corpus (typically
// the union of labelled and unlabelled data, per Algorithm 1): validate,
// vectorize, search, assemble. The k-NN search is the exact pair-once
// merge of knn, or the banded-LSH search of knnLSH when cfg.GraphMode is
// ModeLSH.
func Build(corp *corpus.Corpus, cfg BuilderConfig) (*Graph, error) {
	if len(corp.Sentences) == 0 {
		return nil, fmt.Errorf("graph: empty corpus")
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Extractor == nil {
		cfg.Extractor = features.NewExtractor(nil)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Stats != nil && cfg.Stats.mode != cfg.Mode {
		return nil, fmt.Errorf("graph: stats snapshot was taken in %v mode, config wants %v", cfg.Stats.mode, cfg.Mode)
	}
	if cfg.Mode == MIFeatures && cfg.Stats == nil {
		if cfg.Tags == nil {
			return nil, fmt.Errorf("graph: MIFeatures mode requires Tags")
		}
		if len(cfg.Tags) != len(corp.Sentences) {
			return nil, fmt.Errorf("graph: %d tag rows for %d sentences", len(cfg.Tags), len(corp.Sentences))
		}
	}

	if cfg.GraphMode == ModeLSH {
		// Fill and validate the LSH knobs before the expensive counting
		// pass: a bad Bits value must fail loudly, not truncate silently.
		if cfg.LSH.Workers <= 0 {
			cfg.LSH.Workers = cfg.Workers
		}
		cfg.LSH.defaults()
		if err := cfg.LSH.validate(); err != nil {
			return nil, err
		}
	}

	vecs, verts, _, _, _ := vertexVectors(corp, cfg)
	var neighbors [][]Edge
	if cfg.GraphMode == ModeLSH {
		neighbors = knnLSH(vecs, cfg, cfg.LSH)
	} else {
		neighbors = knn(vecs, cfg)
	}
	g := &Graph{
		Vertices:  verts,
		Index:     make(map[corpus.NGram]int, len(verts)),
		Neighbors: neighbors,
		K:         cfg.K,
	}
	for i, v := range verts {
		g.Index[v] = i
	}
	g.BuildCSR()
	return g, nil
}

// sparseVec is a sorted-by-feature-id sparse vector with cached norm.
type sparseVec struct {
	ids  []int32
	vals []float64
	norm float64
}

// vertexVectors counts each 3-gram's feature co-occurrences and converts
// them to PPMI vectors. It also returns the counts as per-vertex sorted
// runs, the per-vertex totals, and the corpus statistics so the
// incremental Updater can retain them; Build discards those extras.
func vertexVectors(corp *corpus.Corpus, cfg BuilderConfig) ([]sparseVec, []corpus.NGram, [][]featRun, []float64, *Stats) {
	verts := corp.UniqueTrigrams()
	index := make(map[corpus.NGram]int, len(verts))
	for i, v := range verts {
		index[v] = i
	}
	runs, vertTotal, st := countFeatures(corp, cfg, index, len(verts))
	vecs := make([]sparseVec, len(verts))
	if st.grand == 0 {
		// Possible in MIFeatures mode when the threshold excludes every
		// feature, or under a degenerate frozen snapshot: the graph
		// degenerates to isolated vertices.
		return vecs, verts, runs, vertTotal, st
	}
	// One flat backing per field: vertex vi's PPMI entries are a prefix of
	// its runs' span.
	off := make([]int, len(verts)+1)
	for vi, r := range runs {
		off[vi+1] = off[vi] + len(r)
	}
	ids := make([]int32, off[len(verts)])
	vals := make([]float64, off[len(verts)])
	features.ForBlocks(len(verts), cfg.Workers, func(_, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			vecs[vi] = ppmiVec(runs[vi], vertTotal[vi], st, ids[off[vi]:off[vi+1]], vals[off[vi]:off[vi+1]])
		}
	})
	return vecs, verts, runs, vertTotal, st
}

// featureEnum enumerates the per-position feature instances of the
// configured mode as bytes. Build's counting pass and the incremental
// Updater share it, so both observe identical features in identical
// order: reset binds a sentence, then position visits one position. The
// bytes passed to fn are valid only until fn returns. A featureEnum is not
// safe for concurrent use.
type featureEnum struct {
	ex      *features.Extractor
	lexical bool
	miKeep  map[string]bool
	v       features.Visitor
	lemmas  []string
	buf     []byte
}

func newFeatureEnum(cfg BuilderConfig, miKeep map[string]bool) *featureEnum {
	return &featureEnum{ex: cfg.Extractor, lexical: cfg.Mode == LexicalFeatures, miKeep: miKeep}
}

// reset binds the enumerator to the sentence words.
func (fe *featureEnum) reset(words []string) {
	if !fe.lexical {
		fe.v.Reset(fe.ex, words)
		return
	}
	fe.lemmas = fe.lemmas[:0]
	for _, w := range words {
		fe.lemmas = append(fe.lemmas, tokenize.Lemma(w))
	}
}

// position calls fn for each feature of token index i: in LexicalFeatures
// mode "lem%+d=<lemma>" for the words of the 5-word window around i,
// otherwise the extractor's features (those in miKeep, when set).
func (fe *featureEnum) position(i int, fn func(f []byte)) {
	if fe.lexical {
		for d := -2; d <= 2; d++ {
			j := i + d
			if j < 0 || j >= len(fe.lemmas) {
				continue
			}
			b := append(fe.buf[:0], "lem"...)
			if d >= 0 {
				b = append(b, '+')
			}
			b = append(append(strconv.AppendInt(b, int64(d), 10), '='), fe.lemmas[j]...)
			fn(b)
			fe.buf = b
		}
		return
	}
	if fe.miKeep == nil {
		fe.v.Position(i, fn)
		return
	}
	fe.v.Position(i, func(f []byte) {
		if fe.miKeep[string(f)] {
			fn(f)
		}
	})
}

// featRun is one run of a vertex's co-occurrence counts: feature id and
// the number of times it occurred at the vertex.
type featRun struct {
	id, n int32
}

// countFeatures runs the co-occurrence counting pass over corp, whose
// 3-grams index numbers. With cfg.Stats nil it accumulates fresh
// statistics and freezes them into the returned snapshot; with cfg.Stats
// set it counts under the frozen snapshot — the alphabet, featTotal, and
// grand are left untouched and features outside the frozen space are
// skipped (they contribute neither to runs nor to vertTotal).
func countFeatures(corp *corpus.Corpus, cfg BuilderConfig, index map[corpus.NGram]int, nVerts int) ([][]featRun, []float64, *Stats) {
	st := cfg.Stats
	fresh := st == nil
	if fresh {
		st = &Stats{alphabet: features.NewAlphabet(), mode: cfg.Mode}
		if cfg.Mode == MIFeatures {
			st.miKeep = miSelect(corp, cfg)
		}
	}
	runs, vertTotal := countRuns(corp.Sentences, cfg, st, fresh, nVerts, func(words []string, i int) int32 {
		return int32(index[corpus.Trigram(words, i)])
	})
	if fresh {
		st.alphabet.Freeze()
	}
	return runs, vertTotal, st
}

// countBlock is one block of sentences' share of the counting pass: per
// token, in corpus order, its vertex and the end of its feature ids in
// feats (block-local ids while the block's alphabet is local); per local
// feature id its occurrences; per vertex its number of (vertex, feature)
// pairs, turned into the block's scatter cursor once all blocks are done.
type countBlock struct {
	tokVert, tokEnd []int32
	feats           []int32
	featN           []int32
	vertN           []int32
}

// countRuns is the counting pass Build and the Updater share. Each of
// cfg.Workers goroutines takes a contiguous block of sentences and records
// (vertex, feature) pairs against a block-local alphabet
// (features.InternBlocks, which merges the alphabets in block order, so
// feature ids stay first-occurrence ids in corpus order). A counting sort
// by vertex gathers every vertex's features into one span, and a sort and
// run-length encoding of each span gives that vertex's runs in ascending
// feature order. vertexOf maps a token to its vertex in [0, nVerts). With
// fresh set, the pass interns into st.alphabet and accumulates
// st.featTotal and st.grand; otherwise st is only read. Counts are
// integers, exact in float64, so every total has the bits a per-pair
// increment would give it, whatever the worker count.
func countRuns(sents []*corpus.Sentence, cfg BuilderConfig, st *Stats, fresh bool, nVerts int, vertexOf func(words []string, i int) int32) ([][]featRun, []float64) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	blocks := make([]countBlock, workers)
	remap := features.InternBlocks(st.alphabet, len(sents), workers, func(b, lo, hi int, alpha *features.Alphabet) {
		cb := &blocks[b]
		toks := 0
		for _, s := range sents[lo:hi] {
			toks += len(s.Tokens)
		}
		cb.tokVert = make([]int32, 0, toks)
		cb.tokEnd = make([]int32, 0, toks)
		cb.vertN = make([]int32, nVerts)
		enum := newFeatureEnum(cfg, st.miKeep)
		emit := func(f []byte) {
			id := alpha.LookupBytes(f)
			if id < 0 {
				return // outside the frozen feature space
			}
			cb.feats = append(cb.feats, int32(id))
			if fresh {
				for id >= len(cb.featN) {
					cb.featN = append(cb.featN, 0)
				}
				cb.featN[id]++
			}
		}
		reserved := false
		for _, s := range sents[lo:hi] {
			words := s.Words()
			enum.reset(words)
			for i := range words {
				v := vertexOf(words, i)
				before := len(cb.feats)
				enum.position(i, emit)
				cb.tokVert = append(cb.tokVert, v)
				cb.tokEnd = append(cb.tokEnd, int32(len(cb.feats)))
				cb.vertN[v] += int32(len(cb.feats) - before)
			}
			// Once a sixteenth of the block is counted, reserve room for
			// the rest at the observed rate plus an eighth, so the pair
			// buffer is not regrown in 1.25× steps.
			if seen := len(cb.tokVert); !reserved && 16*seen >= toks {
				reserved = true
				if want := len(cb.feats) * toks / seen * 9 / 8; want > cap(cb.feats) {
					cb.feats = slices.Grow(cb.feats, want-len(cb.feats))
				}
			}
		}
	})
	nb := len(remap)
	blocks = blocks[:nb]

	if fresh {
		st.featTotal = make([]float64, st.alphabet.Len())
		for b := range blocks {
			for id, c := range blocks[b].featN {
				if remap[b] != nil {
					id = int(remap[b][id])
				}
				st.featTotal[id] += float64(c)
			}
		}
	}
	// Counting sort by vertex: vertex v's pairs land in
	// flat[off[v]:off[v+1]], block by block in corpus order.
	off := make([]int, nVerts+1)
	for v := 0; v < nVerts; v++ {
		pos := off[v]
		for b := range blocks {
			c := int(blocks[b].vertN[v])
			blocks[b].vertN[v] = int32(pos)
			pos += c
		}
		off[v+1] = pos
	}
	if fresh {
		st.grand = float64(off[nVerts])
	}
	flat := make([]int32, off[nVerts])
	features.ForBlocks(len(sents), nb, func(b, _, _ int) {
		cb, m := &blocks[b], remap[b]
		start := int32(0)
		for t, v := range cb.tokVert {
			p := cb.vertN[v]
			for _, id := range cb.feats[start:cb.tokEnd[t]] {
				if m != nil {
					id = m[id]
				}
				flat[p] = id
				p++
			}
			cb.vertN[v] = p
			start = cb.tokEnd[t]
		}
	})

	// Sort each vertex's span and count its distinct features, then
	// run-length encode the spans into one backing of exactly that size.
	runOff := make([]int, nVerts+1)
	features.ForBlocks(nVerts, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			span := flat[off[v]:off[v+1]]
			slices.Sort(span)
			d := 0
			for k, id := range span {
				if k == 0 || id != span[k-1] {
					d++
				}
			}
			runOff[v+1] = d
		}
	})
	for v := 0; v < nVerts; v++ {
		runOff[v+1] += runOff[v]
	}
	runs := make([][]featRun, nVerts)
	vertTotal := make([]float64, nVerts)
	buf := make([]featRun, runOff[nVerts])
	features.ForBlocks(nVerts, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			span := flat[off[v]:off[v+1]]
			vertTotal[v] = float64(len(span))
			out := buf[runOff[v]:runOff[v]:runOff[v+1]]
			for k, id := range span {
				if k == 0 || id != span[k-1] {
					out = append(out, featRun{id: id})
				}
				out[len(out)-1].n++
			}
			if len(out) > 0 {
				runs[v] = out
			}
		}
	})
	return runs, vertTotal
}

// mergeRuns returns the runs of the summed counts of two run lists, each
// in ascending feature order.
func mergeRuns(a, b []featRun) []featRun {
	out := make([]featRun, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].id < b[j].id:
			out = append(out, a[i])
			i++
		case a[i].id > b[j].id:
			out = append(out, b[j])
			j++
		default:
			out = append(out, featRun{id: a[i].id, n: a[i].n + b[j].n})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// ppmiVec converts one vertex's runs into its PPMI vector under the corpus
// statistics st: pmi = log(c(v,f)·N / (c(v)·c(f))), clamped at 0. The
// vector's entries are written to ids and vals, which must hold len(runs)
// entries. Build's batch transform and the Updater's per-vertex recompute
// share this function, which is what makes incremental rows bit-identical
// to from-scratch ones.
func ppmiVec(runs []featRun, total float64, st *Stats, ids []int32, vals []float64) sparseVec {
	k := 0
	var norm float64
	for _, r := range runs {
		pmi := math.Log(float64(r.n) * st.grand / (total * st.featTotal[r.id]))
		if pmi <= 0 {
			continue
		}
		ids[k], vals[k] = r.id, pmi
		k++
		norm += pmi * pmi
	}
	return sparseVec{ids: ids[:k:k], vals: vals[:k:k], norm: math.Sqrt(norm)}
}

// MIFeatureCount reports how many features pass the MI threshold of the
// configuration — the paper quotes 85 features for MI > 0.005 and 40 for
// MI > 0.01 on BC2GM. Useful for calibrating thresholds on new corpora.
func MIFeatureCount(corp *corpus.Corpus, cfg BuilderConfig) (int, error) {
	if cfg.Tags == nil || len(cfg.Tags) != len(corp.Sentences) {
		return 0, fmt.Errorf("graph: MIFeatureCount requires Tags parallel to sentences")
	}
	if cfg.Extractor == nil {
		cfg.Extractor = features.NewExtractor(nil)
	}
	return len(miSelect(corp, cfg)), nil
}

// miSelect computes the mutual information between each feature's presence
// and the BIO tag over all token positions, returning the features above
// the threshold.
func miSelect(corp *corpus.Corpus, cfg BuilderConfig) map[string]bool {
	// Rough pre-size: BANNER-style extraction yields tens of distinct
	// features per token, heavily shared across tokens.
	nTok := 0
	for _, s := range corp.Sentences {
		nTok += len(s.Tokens)
	}
	featTag := make(map[string]*[corpus.NumTags]float64, 8*nTok)
	var tagCount [corpus.NumTags]float64
	var n float64
	var v features.Visitor
	for si, s := range corp.Sentences {
		words := s.Words()
		tags := cfg.Tags[si]
		v.Reset(cfg.Extractor, words)
		for i := range words {
			if i >= len(tags) {
				break
			}
			t := tags[i]
			tagCount[t]++
			n++
			v.Position(i, func(f []byte) {
				c := featTag[string(f)]
				if c == nil {
					c = new([corpus.NumTags]float64)
					featTag[string(f)] = c
				}
				c[t]++
			})
		}
	}
	keep := make(map[string]bool, 128)
	if n == 0 {
		return keep
	}
	for f, c := range featTag {
		var cf float64
		for _, v := range c {
			cf += v
		}
		var mi float64
		for t := 0; t < corpus.NumTags; t++ {
			pt := tagCount[t] / n
			if pt == 0 {
				continue
			}
			// Present half.
			if c[t] > 0 {
				p := c[t] / n
				mi += p * math.Log2(p/((cf/n)*pt))
			}
			// Absent half.
			if abs := tagCount[t] - c[t]; abs > 0 && n-cf > 0 {
				p := abs / n
				mi += p * math.Log2(p/(((n-cf)/n)*pt))
			}
		}
		if mi > cfg.MIThreshold {
			keep[f] = true
		}
	}
	return keep
}

// posting is one inverted-index entry: a candidate vertex together with its
// stored value for the feature, so the scoring loop accumulates partial dot
// products by a straight postings merge instead of binary-searching back
// into the candidate's vector per (feature, candidate) pair.
type posting struct {
	v   int32
	val float64
}

// buildPostings returns the inverted index over vecs: feature id ->
// postings carrying (vertex, value) in ascending vertex order. Two passes —
// count postings per feature, then fill one flat backing — so no list
// regrows by append.
func buildPostings(vecs []sparseVec) [][]posting {
	nf := 0
	for i := range vecs {
		for _, id := range vecs[i].ids {
			if int(id) >= nf {
				nf = int(id) + 1
			}
		}
	}
	counts := make([]int32, nf)
	total := 0
	for i := range vecs {
		for _, id := range vecs[i].ids {
			counts[id]++
		}
		total += len(vecs[i].ids)
	}
	flat := make([]posting, total)
	postings := make([][]posting, nf)
	pos := 0
	for f := range postings {
		postings[f] = flat[pos : pos : pos+int(counts[f])]
		pos += int(counts[f])
	}
	for vi := range vecs {
		v32 := int32(vi)
		for k, id := range vecs[vi].ids {
			postings[id] = append(postings[id], posting{v: v32, val: vecs[vi].vals[k]})
		}
	}
	return postings
}

// knn finds, for every vertex, its K most cosine-similar vertices by an
// exact inverted-index search that scores each unordered vertex pair once.
//
// Query vi walks only the postings with v > vi (the upper triangle; each
// postings list is sorted by vertex, so a binary search finds the start),
// accumulating scores[c] = Σ q_f·c_f over q's uncapped features in
// ascending id order. Each touched candidate's cosine w is computed once
// and offered to both rows: Edge{c,w} to vi and Edge{vi,w} to c. The rows
// are bit-identical to a per-query search from every endpoint:
//
//   - both endpoints sum the same IEEE products in the same ascending
//     feature order (a·b == b·a exactly), and |q|·|c| commutes likewise;
//   - the MaxDF cap tests the global document frequency, the same from
//     both ends;
//   - edgeLess is a strict total order, so a row's top-K does not depend
//     on the order its edges are offered in.
//
// Each worker owns a full set of n top-K rows backed by one n·K Edge array
// and takes the queries vi = w, w+W, …, which balances the triangle. After
// the barrier the rows of workers 1..W−1 are folded into worker 0's, whose
// backing array becomes the output (each row capped with a full slice
// expression, so an append cannot spill into the next row). The extra
// memory over the output rows themselves is (W−1)·n·K·16 bytes of edges,
// plus 32 bytes per vertex per worker of row lengths, row bars, scores and
// epochs — 1.9 MB of edges for 12k vertices, K=10, W=2.
//
// Zero-norm vertices get nil rows; a vertex with no candidates gets an
// empty non-nil row.
//
// Touched candidates are marked with a per-worker epoch array rather than
// by a nonzero score: with mixed-sign vector values a dot product can
// cancel to exactly zero and must still yield its edge (PPMI values are
// strictly positive, but knn is also exercised directly with arbitrary
// vectors).
func knn(vecs []sparseVec, cfg BuilderConfig) [][]Edge {
	n := len(vecs)
	postings := buildPostings(vecs)
	workers := cfg.Workers
	rows := make([]topKRows, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows[w] = newTopKRows(n, cfg.K)
			knnTriangle(vecs, postings, cfg.MaxDF, w, workers, &rows[w])
		}(w)
	}
	wg.Wait()

	// Fold workers 1..W−1 into worker 0's rows; the row blocks are
	// disjoint, so the fold runs in parallel too.
	dst := &rows[0]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w * n / workers; v < (w+1)*n/workers; v++ {
				for o := 1; o < workers; o++ {
					for _, e := range rows[o].row(v) {
						if dst.admits(int32(v), e) {
							dst.insert(int32(v), e)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	out := make([][]Edge, n)
	for v := range out {
		if vecs[v].norm != 0 {
			out[v] = dst.row(v)
		}
	}
	return out
}

// knnTriangle runs worker w's share of knn's upper-triangle search: the
// queries vi = w, w+workers, …, each scored against the candidates c > vi
// and offered to both rows of rs.
func knnTriangle(vecs []sparseVec, postings [][]posting, maxDF, w, workers int, rs *topKRows) {
	n := len(vecs)
	scores := make([]float64, n)
	seen := make([]int32, n) // epoch of the last query that touched c
	epoch := int32(0)
	for vi := w; vi < n; vi += workers {
		q := &vecs[vi]
		if q.norm == 0 {
			continue
		}
		epoch++
		self := int32(vi)
		// hi is the largest candidate any uncapped feature reaches; the
		// scores of (vi, hi] are zeroed up front so the accumulation loop
		// runs without a first-touch branch.
		hi := self
		for _, id := range q.ids {
			pl := postings[id]
			if maxDF > 0 && len(pl) > maxDF || len(pl) == 0 {
				continue
			}
			if last := pl[len(pl)-1].v; last > hi {
				hi = last
			}
		}
		clear(scores[self+1 : hi+1])
		for f, id := range q.ids {
			pl := postings[id]
			if maxDF > 0 && len(pl) > maxDF {
				continue
			}
			qv := q.vals[f]
			start := sort.Search(len(pl), func(j int) bool { return pl[j].v > self })
			for _, p := range pl[start:] {
				seen[p.v] = epoch
				scores[p.v] += qv * p.val
			}
		}
		// Dense scan of (vi, hi]: candidates come out in ascending order
		// without a touched list in the accumulation loop.
		for c := self + 1; c <= hi; c++ {
			if seen[c] != epoch {
				continue
			}
			cn := vecs[c].norm
			if cn == 0 {
				continue
			}
			wt := scores[c] / (q.norm * cn)
			if e := (Edge{To: c, Weight: wt}); rs.admits(self, e) {
				rs.insert(self, e)
			}
			if e := (Edge{To: self, Weight: wt}); rs.admits(c, e) {
				rs.insert(c, e)
			}
		}
	}
}

// topKRows is one set of n descending-sorted top-K rows over a single
// n·k Edge backing: row v occupies buf[v·k : v·k+lens[v]]. bar[v] mirrors
// the last edge of a full row, so the common full-row reject reads two
// small dense arrays instead of the row itself.
type topKRows struct {
	k    int
	buf  []Edge
	lens []int32
	bar  []Edge
}

func newTopKRows(n, k int) topKRows {
	return topKRows{k: k, buf: make([]Edge, n*k), lens: make([]int32, n), bar: make([]Edge, n)}
}

// row returns row v, capped at its own k slots.
func (r *topKRows) row(v int) []Edge {
	base := v * r.k
	return r.buf[base : base+int(r.lens[v]) : base+r.k]
}

// admits reports whether e would enter row v: the row is not full, or e
// precedes its last edge. This is insertTopKEdge's own reject test, not a
// float threshold, so a NaN weight still enters a row that is not full.
func (r *topKRows) admits(v int32, e Edge) bool {
	return int(r.lens[v]) < r.k || edgeLess(e, r.bar[v], nil)
}

// insert folds an admitted e into row v.
func (r *topKRows) insert(v int32, e Edge) {
	base := int(v) * r.k
	row := insertTopKEdge(r.buf[base:base+int(r.lens[v]):base+r.k], e, r.k, nil)
	r.lens[v] = int32(len(row))
	if len(row) == r.k {
		r.bar[v] = row[r.k-1]
	}
}

// scoreInto accumulates the sparse partial dot products of query vector q
// against every candidate sharing an (uncapped) feature, via a straight
// postings merge. seen/scores are epoch-tracked per-worker scratch; the ids
// of the candidates touched this epoch are appended to touched and
// returned. The batch knn search and the incremental Updater's dirty-row
// recompute share this kernel, so incremental scores are bit-identical to
// from-scratch ones: both iterate q's features in ascending id order over
// postings lists sorted by vertex id.
func scoreInto(q *sparseVec, self int32, postings [][]posting, maxDF int, scores []float64, seen []int32, epoch int32, touched []int32) []int32 {
	for k, id := range q.ids {
		pl := postings[id]
		if maxDF > 0 && len(pl) > maxDF {
			continue
		}
		qv := q.vals[k]
		for _, p := range pl {
			if p.v == self {
				continue
			}
			if seen[p.v] != epoch {
				seen[p.v] = epoch
				scores[p.v] = 0
				touched = append(touched, p.v)
			}
			// Sparse partial dot: accumulate q_f · c_f.
			scores[p.v] += qv * p.val
		}
	}
	return touched
}

// valueOf returns the vector's value for a feature id (binary search).
func valueOf(v *sparseVec, id int32) float64 {
	lo, hi := 0, len(v.ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.ids) && v.ids[lo] == id {
		return v.vals[lo]
	}
	return 0
}

// topK selects the K best candidates by cosine = score/(|q||c|), keeping a
// small descending-sorted buffer with ordered insertion (O(C·K) with K=10).
// rank, when non-nil, substitutes a canonical vertex ordering for the raw
// ids in the tie-break: the incremental Updater appends vertices in arrival
// order but must break exact-weight ties the way a from-scratch Build over
// the sorted union corpus would, so it passes the sorted-NGram rank of each
// vertex. A nil rank ties on the ids themselves (Build's vertex order is
// already the canonical one).
func topK(scores []float64, touched []int32, qnorm float64, vecs []sparseVec, k int, rank []int32) []Edge {
	edges := make([]Edge, 0, k)
	for _, c := range touched {
		cn := vecs[c].norm
		if cn == 0 {
			continue
		}
		e := Edge{To: c, Weight: scores[c] / (qnorm * cn)}
		// Full-row reject inline, ahead of the call: once the buffer fills,
		// most candidates fail this test.
		if len(edges) == k && !edgeLess(e, edges[k-1], rank) {
			continue
		}
		edges = insertTopKEdge(edges, e, k, rank)
	}
	return edges
}

// edgeLess is the total order the top-K selection sorts by: cosine weight
// descending, then canonical vertex order ascending on exact-weight ties.
// Because no two candidates of one query share a To id, the order is
// strict and total — which makes insertTopKEdge insertion-order
// independent: candidates may be folded into a buffer in any order
// without changing bits.
func edgeLess(a, b Edge, rank []int32) bool {
	if a.Weight != b.Weight { // lint:checked exact tie-break keeps candidate order deterministic
		return a.Weight > b.Weight
	}
	if rank != nil {
		return rank[a.To] < rank[b.To]
	}
	return a.To < b.To
}

// insertTopKEdge folds one candidate into a descending-sorted top-K
// buffer by ordered insertion (O(K) with K=10), returning the possibly
// regrown slice. The pair-once rows of knn, the batch topK pass the
// incremental Updater runs, and the LSH re-rank all share this fold.
func insertTopKEdge(edges []Edge, e Edge, k int, rank []int32) []Edge {
	if len(edges) == k {
		if !edgeLess(e, edges[k-1], rank) {
			return edges
		}
		edges = edges[:k-1]
	}
	i := sort.Search(len(edges), func(j int) bool { return edgeLess(e, edges[j], rank) })
	edges = append(edges, Edge{})
	copy(edges[i+1:], edges[i:])
	edges[i] = e
	return edges
}
