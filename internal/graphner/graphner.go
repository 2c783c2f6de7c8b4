// Package graphner implements the paper's Algorithm 1: graph-based
// transductive semi-supervised named entity recognition on top of a
// linear-chain CRF.
//
// Training (procedure TRAIN) fits the base CRF on labelled data and
// records, for every 3-gram occurring in the labelled data, the average
// gold label distribution ("reference distributions" X_ref over V_l).
//
// Testing (procedure TEST) extracts per-token posteriors and tag-level
// transition probabilities from the CRF over labelled-plus-unlabelled
// data, averages the posteriors per unique 3-gram to seed the vertex
// distributions X, propagates X over the similarity graph (package
// propagate), linearly combines the CRF posterior with the propagated
// vertex belief of each token's 3-gram context — α·P_s + (1−α)·X — and
// re-decodes every sentence with Viterbi over the combined potentials.
package graphner

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/propagate"
)

// Config collects the hyper-parameters of Table IV plus model options.
type Config struct {
	// Alpha is the CRF weight in the posterior mixture; the graph gets
	// weight 1−Alpha. The paper's cross-validation chose 0.02 on the real
	// corpora; on the synthetic substitute corpora cross-validation
	// prefers 0.3 (see EXPERIMENTS.md, Table IV).
	Alpha float64
	// Mu and Nu are the propagation hyper-parameters. The paper's
	// cross-validation chose μ=1e-6 and ν∈{1e-6,1e-4} on the real
	// corpora; on the synthetic substitutes cross-validation picks
	// μ=1e-4, ν=1e-6 (Table IV reproduction).
	Mu, Nu float64
	// Iterations is the number of propagation sweeps (paper: 2 or 3).
	Iterations int

	// K is the out-degree of the similarity graph (paper: 10).
	K int
	// Mode selects the vertex representation (Table III).
	Mode graph.FeatureMode
	// MIThreshold applies in MIFeatures mode.
	MIThreshold float64

	// Order is the CRF order (paper reports order 2 for headline numbers).
	Order crf.Order
	// L2 is the CRF regularization strength.
	L2 float64
	// CRFIterations bounds CRF training (L-BFGS iterations).
	CRFIterations int
	// Extractor provides features for both the CRF and the graph; attach
	// a WordClasser for the BANNER-ChemDNER configuration. Defaults to
	// the plain BANNER-style extractor.
	Extractor *features.Extractor

	// Workers bounds parallelism throughout (default GOMAXPROCS).
	Workers int
	// MaxDF caps feature document frequency in the k-NN search (see
	// graph.BuilderConfig).
	MaxDF int
	// Shards partitions the similarity graph for postings-partitioned
	// construction and SPMD propagation (see graph.ShardedGraph). 0 or 1
	// keeps the single-shard pipeline; results are bit-identical for
	// every value.
	Shards int
	// GraphMode selects the k-NN algorithm graph construction runs:
	// graph.ModeExact (the default) or graph.ModeLSH, the banded
	// locality-sensitive builder with exact re-ranking and
	// neighbour-of-neighbour refinement (see graph.LSHConfig and
	// BENCH_lsh.json for the speed/recall trade).
	GraphMode graph.GraphMode
	// LSH tunes the approximate builder when GraphMode is graph.ModeLSH;
	// the zero value means the recommended defaults. LSH.Workers is
	// machine-local and follows Workers.
	LSH graph.LSHConfig
	// LossEvery forwards propagate.Config.LossEvery: how often the
	// diagnostic Equation-1 objective is evaluated during propagation.
	// The loss never influences the labels — it costs a full edge pass,
	// comparable to a sweep itself. 0 (the default) keeps the legacy
	// every-sweep schedule; -1 skips the loss entirely (the serving
	// default — see Freeze); N > 0 evaluates every Nth sweep plus the
	// final one.
	LossEvery int

	// TransitionPower tempers the transition log-probabilities in the
	// final Viterbi re-decode (Algorithm 1 line 9). The node potentials
	// of that decode are posterior marginals, which already encode the
	// chain's transition preferences; full-strength transitions would
	// double-count them and suppress confident single-token mentions.
	// Chosen by cross-validation like the paper's other hyper-parameters
	// (default 0.05).
	TransitionPower float64
}

// Default returns the configuration used for the headline experiments
// (Table IV's BC2GM row, scaled CRF settings).
func Default() Config {
	return Config{
		Alpha:           0.3,
		Mu:              1e-4,
		Nu:              1e-6,
		Iterations:      2,
		K:               10,
		Mode:            graph.AllFeatures,
		Order:           crf.Order2,
		L2:              1.0,
		CRFIterations:   100,
		TransitionPower: 0.05,
	}
}

func (c *Config) defaults() {
	if c.Alpha <= 0 {
		c.Alpha = 0.3
	}
	if c.Mu == 0 {
		c.Mu = 1e-4
	}
	if c.Nu == 0 {
		c.Nu = 1e-6
	}
	if c.Iterations <= 0 {
		c.Iterations = 2
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Order == 0 {
		c.Order = crf.Order2
	}
	if c.L2 <= 0 {
		c.L2 = 1.0
	}
	if c.CRFIterations <= 0 {
		c.CRFIterations = 100
	}
	if c.Extractor == nil {
		c.Extractor = features.NewExtractor(nil)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TransitionPower <= 0 || c.TransitionPower > 1 {
		c.TransitionPower = 0.05
	}
}

// GoldTransitions estimates the tag-level transition probability matrix
// P(t_i | t_{i-1}) from the gold tag bigrams of a labelled corpus, with
// add-one smoothing over structurally allowed transitions (O→I stays
// zero). This is the T_s handed to the final Viterbi re-decode.
func GoldTransitions(labelled *corpus.Corpus) [][]float64 {
	var counts [corpus.NumTags][corpus.NumTags]float64
	for _, s := range labelled.Sentences {
		for i := 1; i < len(s.Tags); i++ {
			counts[s.Tags[i-1]][s.Tags[i]]++
		}
	}
	out := make([][]float64, corpus.NumTags)
	for p := 0; p < corpus.NumTags; p++ {
		row := make([]float64, corpus.NumTags)
		var sum float64
		for c := 0; c < corpus.NumTags; c++ {
			if corpus.Tag(p) == corpus.O && corpus.Tag(c) == corpus.I {
				continue // structurally forbidden under BIO
			}
			row[c] = counts[p][c] + 1
			sum += row[c]
		}
		for c := range row {
			row[c] /= sum
		}
		out[p] = row
	}
	return out
}

// System is a trained GraphNER: the base CRF plus reference distributions.
type System struct {
	cfg      Config
	compiler *crf.Compiler
	model    *crf.Model
	train    *corpus.Corpus
	// xref maps 3-grams of the labelled data to their average gold label
	// distributions (the X_ref of Algorithm 1 line 3).
	xref map[corpus.NGram][]float64
}

// Train runs Algorithm 1's TRAIN procedure.
func Train(train *corpus.Corpus, cfg Config) (*System, error) {
	cfg.defaults()
	if len(train.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: empty training corpus")
	}
	comp := crf.NewCompiler(cfg.Extractor)
	data := comp.Compile(train)
	nf := comp.FreezeAlphabet()
	tr := crf.NewTrainer(cfg.Order)
	tr.L2 = cfg.L2
	tr.MaxIterations = cfg.CRFIterations
	tr.Workers = cfg.Workers
	model, err := tr.Train(data, nf)
	if err != nil {
		return nil, fmt.Errorf("graphner: base CRF: %w", err)
	}
	s := &System{cfg: cfg, compiler: comp, model: model, train: train}
	s.xref = ReferenceDistributions(train)
	return s, nil
}

// ReferenceDistributions computes X_ref: for every unique 3-gram of the
// labelled corpus, the empirical distribution of the gold tag of its
// center word over all its occurrences (Algorithm 1 line 3).
func ReferenceDistributions(labelled *corpus.Corpus) map[corpus.NGram][]float64 {
	sums := make(map[corpus.NGram]*[corpus.NumTags + 1]float64)
	for _, s := range labelled.Sentences {
		if s.Tags == nil {
			continue
		}
		words := s.Words()
		for i := range words {
			g := corpus.Trigram(words, i)
			c := sums[g]
			if c == nil {
				c = new([corpus.NumTags + 1]float64)
				sums[g] = c
			}
			c[s.Tags[i]]++
			c[corpus.NumTags]++ // occurrence count
		}
	}
	out := make(map[corpus.NGram][]float64, len(sums))
	for g, c := range sums {
		d := make([]float64, corpus.NumTags)
		for y := 0; y < corpus.NumTags; y++ {
			d[y] = c[y] / c[corpus.NumTags]
		}
		out[g] = d
	}
	return out
}

// Model exposes the trained base CRF (for baseline decoding and analysis).
func (s *System) Model() *crf.Model { return s.model }

// Compiler exposes the frozen feature compiler.
func (s *System) Compiler() *crf.Compiler { return s.compiler }

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// WithConfig returns a copy of the system using different test-time
// hyper-parameters (α, μ, ν, iterations, transition power, graph options).
// The trained CRF and reference distributions are shared, so hyper-
// parameter sweeps — such as the paper's cross-validation of Table IV —
// avoid retraining. Model-affecting fields (Order, L2, CRFIterations,
// Extractor) are ignored: the existing trained model is kept.
func (s *System) WithConfig(cfg Config) *System {
	cfg.Order = s.cfg.Order
	cfg.L2 = s.cfg.L2
	cfg.CRFIterations = s.cfg.CRFIterations
	cfg.Extractor = s.cfg.Extractor
	cfg.defaults()
	cp := *s
	cp.cfg = cfg
	return &cp
}

// compileCorpus compiles every sentence once, in parallel — safe because
// the system's alphabet is frozen after training. The returned instances
// are the cache the TEST procedure threads through its passes (posteriors,
// MI tag decoding, baseline decoding) so no sentence is re-compiled.
func (s *System) compileCorpus(c *corpus.Corpus) []*crf.Instance {
	ins := make([]*crf.Instance, len(c.Sentences))
	s.parallel(len(c.Sentences), func(i int) {
		ins[i] = s.compiler.CompileSentence(c.Sentences[i])
	})
	return ins
}

// posteriorsOf runs the CRF forward-backward over compiled instances.
func (s *System) posteriorsOf(ins []*crf.Instance) [][][]float64 {
	out := make([][][]float64, len(ins))
	s.parallel(len(ins), func(i int) {
		out[i] = s.model.Posteriors(ins[i])
	})
	return out
}

// BaselineTags decodes the test corpus with the base CRF alone (the
// BANNER / BANNER-ChemDNER baseline rows of Tables I and II).
func (s *System) BaselineTags(test *corpus.Corpus) [][]corpus.Tag {
	ins := s.compileCorpus(test)
	out := make([][]corpus.Tag, len(ins))
	s.parallel(len(ins), func(i int) {
		out[i] = s.model.Decode(ins[i])
	})
	return out
}

// Posteriors runs the CRF forward-backward over a corpus, in parallel.
func (s *System) Posteriors(c *corpus.Corpus) [][][]float64 {
	return s.posteriorsOf(s.compileCorpus(c))
}

// BuildGraph constructs the 3-gram similarity graph over the union of the
// training corpus and test, per the paper's transductive setting. For
// MIFeatures mode the base CRF's decoded tags supply the MI statistics.
func (s *System) BuildGraph(test *corpus.Corpus) (*graph.Graph, error) {
	return s.BuildGraphExtra(test, nil)
}

// BuildGraphExtra builds the graph over train ∪ test ∪ extra, where extra
// is additional unlabelled data beyond the transductive test set — the
// abundant-unlabelled-data setting the paper's conclusion anticipates.
// extra may be nil.
func (s *System) BuildGraphExtra(test, extra *corpus.Corpus) (*graph.Graph, error) {
	return s.buildGraphUnion(s.union(test, extra), nil)
}

// union assembles train ∪ test ∪ extra (train first, labels stripped from
// the rest); extra may be nil.
func (s *System) union(test, extra *corpus.Corpus) *corpus.Corpus {
	u := unionCorpus(s.train, test.StripLabels())
	if extra != nil {
		u.Sentences = append(u.Sentences, extra.StripLabels().Sentences...)
	}
	return u
}

// builderConfig assembles the graph.BuilderConfig for a union corpus,
// including MIFeatures-mode tag decoding. ins, when non-nil, supplies
// pre-compiled instances parallel to union.Sentences so tag decoding
// skips re-compilation. Shared by the batch build and the streaming
// Updater construction.
func (s *System) builderConfig(union *corpus.Corpus, ins []*crf.Instance) graph.BuilderConfig {
	bc := graph.BuilderConfig{
		K:           s.cfg.K,
		Mode:        s.cfg.Mode,
		MIThreshold: s.cfg.MIThreshold,
		Extractor:   s.cfg.Extractor,
		MaxDF:       s.cfg.MaxDF,
		Workers:     s.cfg.Workers,
		Shards:      s.cfg.Shards,
		GraphMode:   s.cfg.GraphMode,
		LSH:         s.cfg.LSH,
	}
	if s.cfg.Mode == graph.MIFeatures {
		tags := make([][]corpus.Tag, len(union.Sentences))
		s.parallel(len(union.Sentences), func(i int) {
			sent := union.Sentences[i]
			if sent.Tags != nil {
				tags[i] = sent.Tags
				return
			}
			var in *crf.Instance
			if ins != nil {
				in = ins[i]
			} else {
				in = s.compiler.CompileSentence(sent)
			}
			tags[i] = s.model.Decode(in)
		})
		bc.Tags = tags
	}
	return bc
}

// buildGraphUnion builds the similarity graph over an assembled union
// corpus. ins, when non-nil, supplies pre-compiled instances parallel to
// union.Sentences so MIFeatures-mode tag decoding skips re-compilation.
func (s *System) buildGraphUnion(union *corpus.Corpus, ins []*crf.Instance) (*graph.Graph, error) {
	return graph.Build(union, s.builderConfig(union, ins))
}

// Output carries the result of the TEST procedure.
type Output struct {
	// Tags are the final GraphNER labels per test sentence.
	Tags [][]corpus.Tag
	// BaselineTags are the base CRF's Viterbi labels for the same
	// sentences.
	BaselineTags [][]corpus.Tag
	// Graph is the similarity graph that was used.
	Graph *graph.Graph
	// VertexBeliefs holds the propagated label distribution X per graph
	// vertex (after Algorithm 1 line 7).
	VertexBeliefs [][]float64
	// Propagation reports the propagation sweep diagnostics.
	Propagation propagate.Result
	// LabelledVertexFraction and PositiveVertexFraction are the graph
	// statistics of §III-D.
	LabelledVertexFraction, PositiveVertexFraction float64
}

// Test runs Algorithm 1's TEST procedure, building the graph internally.
// The union corpus is compiled exactly once; graph construction, posterior
// extraction and final decoding all share the cached instances.
func (s *System) Test(test *corpus.Corpus) (*Output, error) {
	if len(test.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: empty test corpus")
	}
	union := s.union(test, nil)
	ins := s.compileCorpus(union)
	g, err := s.buildGraphUnion(union, ins)
	if err != nil {
		return nil, err
	}
	return s.testOnUnion(test, union, ins, g)
}

// TestWithExtra is Test with additional unlabelled sentences participating
// in graph construction and posterior averaging: the semi-supervised
// setting with abundant unlabelled data that the paper's conclusion
// expects to raise performance further. Only test sentences are decoded.
func (s *System) TestWithExtra(test, extra *corpus.Corpus) (*Output, error) {
	if len(test.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: empty test corpus")
	}
	union := s.union(test, extra)
	ins := s.compileCorpus(union)
	g, err := s.buildGraphUnion(union, ins)
	if err != nil {
		return nil, err
	}
	return s.testOnUnion(test, union, ins, g)
}

// TestWithGraph runs the TEST procedure over a prebuilt graph (so ablation
// sweeps can reuse one CRF across graph variants).
func (s *System) TestWithGraph(test *corpus.Corpus, g *graph.Graph) (*Output, error) {
	if len(test.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: empty test corpus")
	}
	union := s.union(test, nil)
	return s.testOnUnion(test, union, s.compileCorpus(union), g)
}

// testOnUnion is the shared TEST implementation over an assembled union
// corpus and its compiled instances (parallel to union.Sentences).
func (s *System) testOnUnion(test, union *corpus.Corpus, ins []*crf.Instance, g *graph.Graph) (*Output, error) {
	// Line 5: CRF posteriors over D_l ∪ D_u and transition probabilities.
	posteriors := s.posteriorsOf(ins)
	trans := GoldTransitions(s.train)

	// Line 6: average posteriors per unique 3-gram.
	X := AveragePosteriors(g, union, posteriors)

	// References and labelled mask on graph vertices.
	xref := make([][]float64, g.NumVertices())
	labelled := make([]bool, g.NumVertices())
	nLabelled, nPositive := 0, 0
	for v, ng := range g.Vertices {
		if d, ok := s.xref[ng]; ok {
			xref[v] = d
			labelled[v] = true
			nLabelled++
			if d[corpus.B]+d[corpus.I] > 0 {
				nPositive++
			}
		}
	}

	// Line 7: propagate. With Shards > 1 the sweep runs the SPMD kernel
	// over the per-shard layout; beliefs are bit-identical either way.
	pcfg := propagate.Config{
		Mu:         s.cfg.Mu,
		Nu:         s.cfg.Nu,
		Iterations: s.cfg.Iterations,
		Workers:    s.cfg.Workers,
		LossEvery:  s.cfg.LossEvery,
	}
	var prop propagate.Result
	var err error
	if s.cfg.Shards > 1 {
		var sg *graph.ShardedGraph
		sg, err = graph.ShardGraph(g, s.cfg.Shards)
		if err == nil {
			prop, err = propagate.RunSharded(sg, X, xref, labelled, pcfg)
		}
	} else {
		prop, err = propagate.Run(g, X, xref, labelled, pcfg)
	}
	if err != nil {
		return nil, fmt.Errorf("graphner: propagation: %w", err)
	}

	// Lines 8-9 on the test sentences: combine and re-decode. The union
	// corpus lists training sentences first, so test sentence i is
	// union.Sentences[len(train)+i] with posteriors aligned the same way.
	offset := len(s.train.Sentences)
	out := &Output{
		Graph:         g,
		Propagation:   prop,
		VertexBeliefs: X,
		Tags:          make([][]corpus.Tag, len(test.Sentences)),
	}
	if n := g.NumVertices(); n > 0 {
		out.LabelledVertexFraction = float64(nLabelled) / float64(n)
		out.PositiveVertexFraction = float64(nPositive) / float64(n)
	}

	var decodeErr error
	var mu sync.Mutex
	s.parallel(len(test.Sentences), func(i int) {
		sent := test.Sentences[i]
		words := sent.Words()
		ps := posteriors[offset+i]
		combined := make([][]float64, len(words))
		for j := range words {
			row := make([]float64, corpus.NumTags)
			var gb []float64
			if vi := g.Lookup(corpus.Trigram(words, j)); vi >= 0 {
				gb = X[vi]
			}
			for y := 0; y < corpus.NumTags; y++ {
				if gb != nil {
					row[y] = s.cfg.Alpha*ps[j][y] + (1-s.cfg.Alpha)*gb[y]
				} else {
					row[y] = ps[j][y]
				}
			}
			combined[j] = row
		}
		if assert.Enabled {
			assert.NoNaNRows(combined, "combined potentials P'_s")
		}
		tags, err := crf.DecodeWithPotentialsT(combined, trans, s.model.BIO, s.cfg.TransitionPower)
		if err != nil {
			mu.Lock()
			decodeErr = err
			mu.Unlock()
			return
		}
		out.Tags[i] = tags
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("graphner: decoding: %w", decodeErr)
	}

	// Baseline decode reuses the cached union instances: features depend
	// only on the words, which label stripping leaves untouched.
	out.BaselineTags = make([][]corpus.Tag, len(test.Sentences))
	s.parallel(len(test.Sentences), func(i int) {
		out.BaselineTags[i] = s.model.Decode(ins[offset+i])
	})
	return out, nil
}

// AveragePosteriors computes X (Algorithm 1 line 6): the average of the
// CRF's per-token posteriors over all occurrences of each graph vertex.
// Vertices never observed stay nil (materialized as uniform by propagate).
func AveragePosteriors(g *graph.Graph, c *corpus.Corpus, posteriors [][][]float64) [][]float64 {
	X := make([][]float64, g.NumVertices())
	counts := make([]float64, g.NumVertices())
	for si, s := range c.Sentences {
		words := s.Words()
		ps := posteriors[si]
		for i := range words {
			vi := g.Lookup(corpus.Trigram(words, i))
			if vi < 0 {
				continue
			}
			if X[vi] == nil {
				X[vi] = make([]float64, corpus.NumTags)
			}
			for y := 0; y < corpus.NumTags; y++ {
				X[vi][y] += ps[i][y]
			}
			counts[vi]++
		}
	}
	for v := range X {
		if X[v] != nil {
			for y := range X[v] {
				X[v][y] /= counts[v]
			}
		}
	}
	return X
}

// unionCorpus concatenates labelled and unlabelled corpora (train first).
func unionCorpus(a, b *corpus.Corpus) *corpus.Corpus {
	u := corpus.New()
	u.Sentences = make([]*corpus.Sentence, 0, len(a.Sentences)+len(b.Sentences))
	u.Sentences = append(u.Sentences, a.Sentences...)
	u.Sentences = append(u.Sentences, b.Sentences...)
	return u
}

// parallel runs fn(i) for i in [0,n) over the configured worker count.
func (s *System) parallel(n int, fn func(i int)) {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
