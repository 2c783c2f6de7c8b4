package graphner

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/propagate"
)

// Streaming-mode propagation runs to a fixed point rather than the
// paper's fixed 2-3 sweeps: warm starts are only within the documented
// tolerance of a full run when both start from converged beliefs.
const (
	streamTolerance = 1e-8
	streamSweepCap  = 2048
)

// Streamer runs Algorithm 1's TEST procedure in streaming mode: after an
// initial transductive pass over train ∪ test, additional unlabelled
// batches are folded in with incremental graph maintenance
// (graph.Updater) and warm-start frontier propagation
// (propagate.RunWarmFlat), and only the test sentences whose vertices
// actually moved are re-decoded. The maintained graph is exactly the
// graph a from-scratch build over the accumulated union would produce
// (see graph.Updater); beliefs are within the warm-start tolerance of a
// fully converged from-scratch propagation.
type Streamer struct {
	sys  *System
	test *corpus.Corpus

	updater *graph.Updater
	trans   [][]float64

	// Flat propagation state, indexed like the graph's vertices.
	X        []float64
	xref     [][]float64
	labelled []bool

	// Per-vertex CRF posterior sums and occurrence counts across every
	// corpus seen so far; a vertex first observed in batch b is seeded
	// with its average posterior, exactly as Algorithm 1 line 6 seeds
	// the batch build.
	postSum []float64
	postCnt []float64

	// Cached per-test-sentence CRF posteriors (the P_s of line 8) and the
	// inverted index vertex → test sentences, for selective re-decoding.
	testPost  [][][]float64
	vertSents [][]int32

	tags     [][]corpus.Tag
	baseline [][]corpus.Tag
}

// StreamResult reports what one AddUnlabelled batch did.
type StreamResult struct {
	// Update summarizes the incremental graph maintenance.
	Update graph.UpdateResult
	// Warm summarizes the warm-start propagation.
	Warm propagate.WarmResult
	// Redecoded counts test sentences whose labels were recomputed
	// because a vertex they contain moved.
	Redecoded int
}

// NewStreamer runs the initial TEST pass — graph build over train ∪ test,
// posterior seeding, propagation to convergence, final decode — and
// retains the incremental-maintenance state for AddUnlabelled calls.
func NewStreamer(sys *System, test *corpus.Corpus) (*Streamer, error) {
	if len(test.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: empty test corpus")
	}
	union := sys.union(test, nil)
	ins := sys.compileCorpus(union)
	upd, err := graph.NewUpdater(union, sys.builderConfig(union, ins))
	if err != nil {
		return nil, fmt.Errorf("graphner: streaming graph: %w", err)
	}
	st := &Streamer{
		sys:     sys,
		test:    test,
		updater: upd,
		trans:   GoldTransitions(sys.train),
	}
	g := upd.Graph()
	n := g.NumVertices()
	const Y = corpus.NumTags
	st.postSum = make([]float64, n*Y)
	st.postCnt = make([]float64, n)
	posteriors := sys.posteriorsOf(ins)
	st.accumulate(union, posteriors, 0)

	// Seed X with average posteriors (uniform where never observed) and
	// attach references on vertices of the labelled data.
	st.X = make([]float64, n*Y)
	st.xref = make([][]float64, n)
	st.labelled = make([]bool, n)
	for v := 0; v < n; v++ {
		st.seedRow(v)
	}

	if _, err := propagate.RunFlat(g, st.X, st.xref, st.labelled, st.propConfig()); err != nil {
		return nil, fmt.Errorf("graphner: propagation: %w", err)
	}

	// Cache test posteriors and the vertex → test-sentence index; the
	// union corpus lists training sentences first.
	offset := len(sys.train.Sentences)
	st.testPost = posteriors[offset:]
	st.vertSents = make([][]int32, n)
	for i, sent := range test.Sentences {
		words := sent.Words()
		for j := range words {
			if vi := g.Lookup(corpus.Trigram(words, j)); vi >= 0 {
				l := st.vertSents[vi]
				if len(l) == 0 || l[len(l)-1] != int32(i) {
					st.vertSents[vi] = append(l, int32(i))
				}
			}
		}
	}

	st.tags = make([][]corpus.Tag, len(test.Sentences))
	all := make([]int, len(test.Sentences))
	for i := range all {
		all[i] = i
	}
	if err := st.decode(all); err != nil {
		return nil, err
	}
	st.baseline = make([][]corpus.Tag, len(test.Sentences))
	sys.parallel(len(test.Sentences), func(i int) {
		st.baseline[i] = sys.model.Decode(ins[offset+i])
	})
	return st, nil
}

// AddUnlabelled folds a batch of unlabelled sentences into the streaming
// state: CRF posteriors for the batch, incremental graph maintenance,
// warm-start propagation seeded from the dirty rows, and re-decoding of
// exactly the test sentences containing a touched vertex.
func (st *Streamer) AddUnlabelled(batch *corpus.Corpus) (StreamResult, error) {
	var res StreamResult
	if len(batch.Sentences) == 0 {
		return res, nil
	}
	sys := st.sys
	stripped := batch.StripLabels()
	ins := sys.compileCorpus(stripped)
	posteriors := sys.posteriorsOf(ins)

	g := st.updater.Graph()
	oldN := g.NumVertices()
	upd, err := st.updater.AddSentences(stripped.Sentences)
	if err != nil {
		return res, fmt.Errorf("graphner: incremental update: %w", err)
	}
	res.Update = upd
	n := g.NumVertices()
	const Y = corpus.NumTags

	// Grow the flat state for appended vertices and seed their rows.
	st.postSum = append(st.postSum, make([]float64, (n-oldN)*Y)...)
	st.postCnt = append(st.postCnt, make([]float64, n-oldN)...)
	st.X = append(st.X, make([]float64, (n-oldN)*Y)...)
	st.xref = append(st.xref, make([][]float64, n-oldN)...)
	st.labelled = append(st.labelled, make([]bool, n-oldN)...)
	st.vertSents = append(st.vertSents, make([][]int32, n-oldN)...)
	st.accumulate(stripped, posteriors, 0)
	for v := oldN; v < n; v++ {
		st.seedRow(v)
	}
	if assert.Enabled {
		assert.NoNaN(st.X, "streaming beliefs after seeding")
	}

	warm, err := propagate.RunWarmFlat(g, st.X, st.xref, st.labelled, st.propConfig(), upd.DirtyRows)
	if err != nil {
		return res, fmt.Errorf("graphner: warm propagation: %w", err)
	}
	res.Warm = warm

	// Re-decode only test sentences containing a vertex whose belief
	// moved. New vertices cannot occur in test sentences (their 3-grams
	// were already vertices), so only pre-existing rows matter.
	redecode := make(map[int]bool)
	for v := 0; v < oldN; v++ {
		if !warm.Touched[v] {
			continue
		}
		for _, i := range st.vertSents[v] {
			redecode[int(i)] = true
		}
	}
	list := make([]int, 0, len(redecode))
	for i := range redecode {
		list = append(list, i)
	}
	sort.Ints(list)
	if err := st.decode(list); err != nil {
		return res, err
	}
	res.Redecoded = len(list)
	return res, nil
}

// propConfig is the converged-propagation configuration streaming mode
// uses for both the initial full run and warm restarts. It skips the
// Equation-1 loss: NewStreamer discards RunFlat's Result and RunWarmFlat
// never evaluates it, and the loss is diagnostic (no control flow reads
// it), so the legacy every-sweep schedule would cost one full edge pass
// per sweep for nothing, with beliefs bit-identical either way.
func (st *Streamer) propConfig() propagate.Config {
	return propagate.Config{
		Mu:         st.sys.cfg.Mu,
		Nu:         st.sys.cfg.Nu,
		Tolerance:  streamTolerance,
		Iterations: streamSweepCap,
		Workers:    st.sys.cfg.Workers,
		LossEvery:  -1,
	}
}

// accumulate folds per-token CRF posteriors into the per-vertex sums.
// posteriors[i-drop] must correspond to c.Sentences[i] for i ≥ drop.
func (st *Streamer) accumulate(c *corpus.Corpus, posteriors [][][]float64, drop int) {
	const Y = corpus.NumTags
	g := st.updater.Graph()
	for si := drop; si < len(c.Sentences); si++ {
		words := c.Sentences[si].Words()
		ps := posteriors[si-drop]
		for i := range words {
			vi := g.Lookup(corpus.Trigram(words, i))
			if vi < 0 {
				continue
			}
			row := vi * Y
			for y := 0; y < Y; y++ {
				st.postSum[row+y] += ps[i][y]
			}
			st.postCnt[vi]++
		}
	}
}

// seedRow initializes vertex v's belief row from its accumulated average
// posterior (uniform if never observed) and attaches its reference
// distribution when the 3-gram occurs in the labelled data.
func (st *Streamer) seedRow(v int) {
	const Y = corpus.NumTags
	row := v * Y
	if c := st.postCnt[v]; c > 0 {
		for y := 0; y < Y; y++ {
			st.X[row+y] = st.postSum[row+y] / c
		}
	} else {
		for y := 0; y < Y; y++ {
			st.X[row+y] = 1.0 / Y
		}
	}
	if d, ok := st.sys.xref[st.updater.Graph().Vertices[v]]; ok {
		st.xref[v] = d
		st.labelled[v] = true
	}
}

// decode recomputes the combined-potential Viterbi labels (Algorithm 1
// lines 8-9) for the given test sentence indices.
func (st *Streamer) decode(sentences []int) error {
	const Y = corpus.NumTags
	sys := st.sys
	g := st.updater.Graph()
	var decodeErr error
	var mu sync.Mutex
	sys.parallel(len(sentences), func(k int) {
		i := sentences[k]
		sent := st.test.Sentences[i]
		words := sent.Words()
		ps := st.testPost[i]
		combined := make([][]float64, len(words))
		for j := range words {
			row := make([]float64, Y)
			gb := -1
			if vi := g.Lookup(corpus.Trigram(words, j)); vi >= 0 {
				gb = vi * Y
			}
			for y := 0; y < Y; y++ {
				if gb >= 0 {
					row[y] = sys.cfg.Alpha*ps[j][y] + (1-sys.cfg.Alpha)*st.X[gb+y]
				} else {
					row[y] = ps[j][y]
				}
			}
			combined[j] = row
		}
		if assert.Enabled {
			assert.NoNaNRows(combined, "streaming combined potentials P'_s")
		}
		tags, err := crf.DecodeWithPotentialsT(combined, st.trans, sys.model.BIO, sys.cfg.TransitionPower)
		if err != nil {
			mu.Lock()
			decodeErr = err
			mu.Unlock()
			return
		}
		st.tags[i] = tags
	})
	if decodeErr != nil {
		return fmt.Errorf("graphner: streaming decode: %w", decodeErr)
	}
	return nil
}

// Tags returns the current GraphNER labels for the test sentences,
// reflecting every batch folded in so far. The returned slice is live —
// subsequent AddUnlabelled calls update it in place.
func (st *Streamer) Tags() [][]corpus.Tag { return st.tags }

// BaselineTags returns the base CRF's labels for the test sentences
// (unaffected by streaming updates).
func (st *Streamer) BaselineTags() [][]corpus.Tag { return st.baseline }

// Graph returns the incrementally maintained similarity graph.
func (st *Streamer) Graph() *graph.Graph { return st.updater.Graph() }

// Updater exposes the graph maintenance state (for equivalence checks
// and benchmarks).
func (st *Streamer) Updater() *graph.Updater { return st.updater }

// VertexBeliefs returns the flat propagated belief matrix, indexed like
// Graph().Vertices.
func (st *Streamer) VertexBeliefs() []float64 { return st.X }
