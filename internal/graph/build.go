package graph

import (
	"fmt"
	"math"
	"math/bits"
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
	// means no cap. The cap changes the graph: on a 600-sentence BC2GM
	// corpus MaxDF 2000 keeps the uncapped neighbour set in 97.4% of
	// rows and MaxDF 500 in 80.4%, and weights differ in most rows. Since
	// the search skips most high-df postings by its norm bounds anyway,
	// MaxDF 2000 builds that graph no faster than no cap, and MaxDF 500
	// only slightly faster (BenchmarkAblation_KNNMaxDF).
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
	// GraphMode is ignored: knn's exact search is the only one.
	//
	// Deprecated: the banded-LSH builder was removed.
	GraphMode GraphMode
	// LSH is ignored.
	//
	// Deprecated: the banded-LSH builder was removed.
	LSH LSHConfig
}

// GraphMode is the type of the deprecated BuilderConfig.GraphMode field.
//
// Deprecated: the banded-LSH builder was removed; every build runs knn's
// exact search.
type GraphMode int

// LSHConfig is the type of the deprecated BuilderConfig.LSH field.
//
// Deprecated: the banded-LSH builder was removed.
type LSHConfig struct{}

// resolve fills in cfg's defaults — K 10, the plain extractor, GOMAXPROCS
// workers — and checks its Stats snapshot and MIFeatures Tags against a
// corpus of nSents sentences. Build and NewUpdater both start here.
func (cfg *BuilderConfig) resolve(nSents int) error {
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
		return fmt.Errorf("graph: stats snapshot was taken in %v mode, config wants %v", cfg.Stats.mode, cfg.Mode)
	}
	if cfg.Mode == MIFeatures && cfg.Stats == nil {
		if cfg.Tags == nil {
			return fmt.Errorf("graph: MIFeatures mode requires Tags")
		}
		if len(cfg.Tags) != nSents {
			return fmt.Errorf("graph: %d tag rows for %d sentences", len(cfg.Tags), nSents)
		}
	}
	return nil
}

// Build constructs the 3-gram similarity graph over the corpus (typically
// the union of labelled and unlabelled data, per Algorithm 1): validate,
// vectorize, search, assemble. The k-NN search is the exact pruned search
// of knn.
func Build(corp *corpus.Corpus, cfg BuilderConfig) (*Graph, error) {
	if len(corp.Sentences) == 0 {
		return nil, fmt.Errorf("graph: empty corpus")
	}
	if err := cfg.resolve(len(corp.Sentences)); err != nil {
		return nil, err
	}

	vecs, verts, _, _, _ := vertexVectors(corp, cfg)
	neighbors := knn(vecs, cfg)
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
// exact per-query search that stops early, after the norm bounds of L2AP
// and L2Knng (Anastasiu & Karypis, ICDE 2014 and CIKM 2015).
//
// Query q visits its uncapped features rarest first — ascending document
// frequency (df), then id — accumulating partial dot products of the
// candidates it touches. Those partials only feed bounds; a surviving
// candidate is re-scored from scratch. Two suffix bounds of q cap what the
// features from position j on can still add to a cosine: l2Tail[j] =
// ‖q_{j..}‖/‖q‖ (Cauchy–Schwarz) and maxTail[j] = min(‖q_{j..}‖,
// Σ_{i≥j}|q_i|·maxn_i)/‖q‖, where maxn_f is the largest |c_f|/‖c‖ over all
// vertices. The search
//
//   - seeds the row once 4K candidates are touched, scoring exactly the 2K
//     with the largest partial/‖c‖;
//   - stops before position j once the row is full and maxTail[j] is below
//     its K-th weight t: no untouched vertex can reach t;
//   - then scores only the touched candidates whose upper bound
//     partial/(‖q‖‖c‖) + min(maxTail[j], l2Tail[j]·tail_c[⌊log2 df_j⌋])
//     reaches t. tail_c[b] is ‖c restricted to features with df ≥ 2^b‖/‖c‖,
//     which covers c's share of every feature left, since those come in
//     ascending df order.
//
// Every bound is inflated by boundSlack and a candidate is dropped only
// when it falls more than pruneTol below t, which covers the rounding of
// partials and bounds, so no vertex that could enter the row is skipped.
// The rows are bit-identical to the per-query reference (scoreInto +
// topK):
//
//   - an exact score sums q_f·c_f over c's ids in ascending order, picking
//     the ids stamped in a dense copy of q's uncapped values: the same IEEE
//     products in the same order as scoreInto's accumulation, divided by
//     the same ‖q‖·‖c‖;
//   - edgeLess is a strict total order, so a row's top-K does not depend
//     on which candidates are offered or in what order, as long as every
//     one that could enter is offered.
//
// A query that is not finite and well scaled, or that shares an uncapped
// feature with such a vertex (see newKNNIndex), runs the reference walk
// itself: with NaN weights edgeLess is no longer a total order, so only
// the reference's own candidate order reproduces its row. PPMI vectors
// never take that path.
//
// Each row is written only by its own query: workers take the queries
// vi = w, w+W, … and write into one n·min(K, n−1) Edge backing (each row
// capped with a full slice expression, so an append cannot spill into the
// next row). Beyond the output, the search holds the postings, a bound
// table of ⌊log2 max df⌋+1 float64s per vertex, maxn and two flags per
// feature, and per worker dense candidate scratch (16 bytes per vertex)
// and a stamped dense copy of q (12 bytes per feature).
//
// Zero-norm vertices get nil rows; a vertex with no candidates gets an
// empty non-nil row. Touched candidates are marked with a per-worker epoch
// rather than by a nonzero partial: with mixed-sign vector values a dot
// product can cancel to exactly zero and must still yield its edge.
func knn(vecs []sparseVec, cfg BuilderConfig) [][]Edge {
	rows, _ := knnSearch(vecs, cfg)
	return rows
}

// knnStats counts a knn search's work: postings visited while
// accumulating partial dots, and candidates scored exactly.
type knnStats struct {
	postings, scored int64
}

// knnSearch is knn, also returning how much work the search did.
func knnSearch(vecs []sparseVec, cfg BuilderConfig) ([][]Edge, knnStats) {
	return newKNNIndex(vecs, cfg.MaxDF).search(cfg)
}

// search runs knn's search over the index's vectors with cfg's K and
// Workers; cfg.MaxDF must be the cap the index was built with.
func (ix *knnIndex) search(cfg BuilderConfig) ([][]Edge, knnStats) {
	vecs := ix.vecs
	n := len(vecs)
	width := min(cfg.K, max(n-1, 0))
	buf := make([]Edge, n*width)
	out := make([][]Edge, n)
	stats := make([]knnStats, cfg.Workers)
	var wg sync.WaitGroup
	for w := range stats {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newKNNSearcher(ix, cfg.K)
			for vi := w; vi < n; vi += len(stats) {
				if vecs[vi].norm != 0 {
					base := vi * width
					out[vi] = s.search(int32(vi), buf[base:base:base+width])
				}
			}
			stats[w] = s.stats
		}(w)
	}
	wg.Wait()
	var total knnStats
	for _, s := range stats {
		total.postings += s.postings
		total.scored += s.scored
	}
	return out, total
}

const (
	// boundSlack inflates every precomputed bound to cover its rounding.
	boundSlack = 1 + 1e-9
	// pruneTol is the least margin, below the row's K-th weight, by which
	// a bound must fall to prune; knnSearcher.search widens it with the
	// query's length, since summation error grows with the terms summed.
	pruneTol = 1e-12
)

// knnIndex is the read-only state the queries of one knn search share,
// built in O(nnz).
type knnIndex struct {
	vecs     []sparseVec
	postings [][]posting
	maxDF    int
	// maxn[f] is the largest |c_f|/‖c‖ over the bounded vertices.
	maxn []float64
	// tail[c·nb+b] is ‖c restricted to features with df ≥ 2^b‖/‖c‖.
	nb   int
	tail []float64
	// inv[c] is 1/‖c‖, or 0 when c is zero or unbounded.
	inv []float64
	// unbounded[f] marks a feature on whose postings some vertex is not
	// finite and well scaled; unboundedV marks those vertices.
	unbounded, unboundedV []bool
}

// newKNNIndex builds the postings and the norm bounds of knn's search. A
// vertex is bounded when its norm lies in [1e-150, 1e150] and matches its
// values to 1e-12: then every product and dot with another bounded vertex
// is finite, every cosine is finite, and the bounds hold. Any other
// nonzero vertex is marked unbounded, with its features.
func newKNNIndex(vecs []sparseVec, maxDF int) *knnIndex {
	postings := buildPostings(vecs)
	n, nf := len(vecs), len(postings)
	topDF := 1
	for _, pl := range postings {
		topDF = max(topDF, len(pl))
	}
	nb := bits.Len32(uint32(topDF))
	ix := &knnIndex{
		vecs: vecs, postings: postings, maxDF: maxDF,
		maxn: make([]float64, nf), nb: nb, tail: make([]float64, n*nb), inv: make([]float64, n),
		unbounded: make([]bool, nf), unboundedV: make([]bool, n),
	}
	for c := range vecs {
		v := &vecs[c]
		if v.norm == 0 {
			continue
		}
		tc := ix.tail[c*nb : (c+1)*nb]
		for k, id := range v.ids {
			tc[bits.Len32(uint32(len(postings[id])))-1] += v.vals[k] * v.vals[k]
		}
		for b := nb - 2; b >= 0; b-- {
			tc[b] += tc[b+1]
		}
		if !(v.norm >= 1e-150 && v.norm <= 1e150 && math.Abs(math.Sqrt(tc[0])-v.norm) <= 1e-12*v.norm) {
			ix.unboundedV[c] = true
			for _, id := range v.ids {
				ix.unbounded[id] = true
			}
			continue
		}
		inv := 1 / v.norm
		ix.inv[c] = inv
		for b := range tc {
			tc[b] = math.Sqrt(tc[b]) * inv * boundSlack
		}
		for k, id := range v.ids {
			ix.maxn[id] = max(ix.maxn[id], math.Abs(v.vals[k])*inv*boundSlack)
		}
	}
	return ix
}

// knnSearcher is one worker's scratch for knn's per-query search.
type knnSearcher struct {
	ix    *knnIndex
	k     int
	epoch int32
	// Per vertex: the partial dot, and the epochs of the last query that
	// touched it and that scored it exactly.
	partial      []float64
	seen, scored []int32
	touched      []int32
	// Per feature: the query's uncapped values, stamped with its epoch.
	qd []float64
	qs []int32
	// The query's uncapped features as df<<32 | id, and their suffix bounds.
	order           []uint64
	l2Tail, maxTail []float64
	seeds           []seedCand
	stats           knnStats
}

// seedCand is a candidate of the seed buffer, keyed by partial/‖c‖.
type seedCand struct {
	key float64
	c   int32
}

func newKNNSearcher(ix *knnIndex, k int) *knnSearcher {
	n, nf := len(ix.vecs), len(ix.postings)
	return &knnSearcher{
		ix: ix, k: k,
		partial: make([]float64, n), seen: make([]int32, n), scored: make([]int32, n),
		qd: make([]float64, nf), qs: make([]int32, nf),
	}
}

// search returns query vi's row, built in row (which has room for
// min(K, n−1) edges).
func (s *knnSearcher) search(vi int32, row []Edge) []Edge {
	ix := s.ix
	q := &ix.vecs[vi]
	s.epoch++
	ep := s.epoch
	order := s.order[:0]
	reference := ix.unboundedV[vi]
	for k, id := range q.ids {
		df := len(ix.postings[id])
		if ix.maxDF > 0 && df > ix.maxDF {
			continue
		}
		reference = reference || ix.unbounded[id]
		s.qd[id], s.qs[id] = q.vals[k], ep
		order = append(order, uint64(df)<<32|uint64(id))
	}
	s.order = order
	if reference {
		for _, o := range order {
			s.stats.postings += int64(o >> 32)
		}
		s.touched = scoreInto(q, vi, ix.postings, ix.maxDF, s.partial, s.seen, ep, s.touched[:0])
		s.stats.scored += int64(len(s.touched))
		return topK(s.partial, s.touched, q.norm, ix.vecs, s.k, nil)
	}
	slices.Sort(order)

	// Suffix bounds; position m, past the last feature, bounds nothing.
	m := len(order)
	l2, mx := slices.Grow(s.l2Tail[:0], m+1)[:m+1], slices.Grow(s.maxTail[:0], m+1)[:m+1]
	s.l2Tail, s.maxTail = l2, mx
	invQ := ix.inv[vi]
	var sq, abs float64
	l2[m], mx[m] = 0, 0
	for j := m - 1; j >= 0; j-- {
		id := uint32(order[j])
		x := s.qd[id]
		sq += x * x
		abs += math.Abs(x) * ix.maxn[id]
		r := math.Sqrt(sq)
		l2[j] = r * invQ * boundSlack
		mx[j] = min(r, abs) * invQ * boundSlack
	}
	tol := pruneTol + 3e-16*float64(len(q.ids))

	// Walk the postings rarest first until no untouched vertex can enter.
	touched := s.touched[:0]
	s.seen[vi] = ep // never a candidate of itself
	seeded := false
	j := 0
	for ; j < m; j++ {
		if !seeded && len(touched) >= 4*s.k {
			row = s.seed(q, row, touched)
			seeded = true
		}
		if len(row) == s.k && mx[j] < row[s.k-1].Weight-tol {
			break
		}
		id := uint32(order[j])
		qv := s.qd[id]
		pl := ix.postings[id]
		s.stats.postings += int64(len(pl))
		for _, p := range pl {
			c := p.v
			if s.seen[c] != ep {
				if ix.inv[c] == 0 {
					continue // a zero vector is nobody's neighbour
				}
				s.seen[c] = ep
				s.partial[c] = 0
				touched = append(touched, c)
			}
			s.partial[c] += qv * p.val
		}
	}
	s.touched = touched

	// Score, in touched order, every candidate whose bound reaches the row.
	lt, mt, bj := l2[j], mx[j], 0
	if j < m {
		bj = bits.Len32(uint32(order[j]>>32)) - 1
	}
	for _, c := range touched {
		if s.scored[c] == ep {
			continue
		}
		if len(row) == s.k {
			ub := s.partial[c]*invQ*ix.inv[c] + min(mt, lt*ix.tail[int(c)*ix.nb+bj])
			if ub < row[s.k-1].Weight-tol {
				continue
			}
		}
		row = s.offer(q, c, row)
	}
	return row
}

// seed offers row the 2K touched candidates with the largest partial/‖c‖,
// kept in a bounded insertion buffer, so the row fills early with strong
// edges and its K-th weight starts pruning.
func (s *knnSearcher) seed(q *sparseVec, row []Edge, touched []int32) []Edge {
	size := 2 * s.k
	buf := s.seeds[:0]
	for _, c := range touched {
		key := s.partial[c] * s.ix.inv[c]
		i := len(buf)
		if i == size {
			if !(key > buf[size-1].key) {
				continue
			}
			i--
		} else {
			buf = append(buf, seedCand{})
		}
		for ; i > 0 && buf[i-1].key < key; i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = seedCand{key: key, c: c}
	}
	s.seeds = buf
	for _, sc := range buf {
		row = s.offer(q, sc.c, row)
	}
	return row
}

// offer scores candidate c exactly — Σ q_f·c_f over c's ids in ascending
// order, restricted to q's uncapped features, as scoreInto accumulates it
// — and folds the edge into row.
func (s *knnSearcher) offer(q *sparseVec, c int32, row []Edge) []Edge {
	cv := &s.ix.vecs[c]
	ep := s.epoch
	var dot float64
	for k, id := range cv.ids {
		if s.qs[id] == ep {
			dot += s.qd[id] * cv.vals[k]
		}
	}
	s.scored[c] = ep
	s.stats.scored++
	return insertTopKEdge(row, Edge{To: c, Weight: dot / (q.norm * cv.norm)}, s.k, nil)
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
// regrown slice. The pruned rows of knn and the batch topK pass the
// incremental Updater runs share this fold.
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
