package main

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/graphner"
)

// runStream times folding unseen raw text into a live graph. A fold
// tokenizes a batch and passes it to Streamer.AddUnlabelled, which updates
// the graph incrementally, warm-starts propagation and re-decodes the test
// sentences whose beliefs moved. Fold costs grow from fold to fold and
// depend strongly on the text, so rounds of Folds folds repeat until the
// measured phase is over, each from a fresh NewStreamer, the set-up, and
// each on new batches from the same seeded stream of sentences.
//
// After every fold a graph.Updater owned by the benchmark takes the same
// batch and must end equal to Streamer.Graph(). In the traced run that
// update, the batch's compile and posteriors and the re-decode are
// replayed from public calls to split the fold by layer; warm propagation
// is the remainder, so it is labelled derived.
func runStream(o options, t *tracer, r *result) error {
	sz := sizesFor(o.Short)
	r.Params = sz
	train, test := generator(o.Seed, sz.StreamTrain+sz.StreamTest).Generate().Split(sz.StreamTrain)
	sys, err := graphner.Train(train, systemConfig(sz))
	if err != nil {
		return err
	}
	r.recordConfig(sys.Config())
	batches := generator(o.Seed+1, sz.Folds*sz.FoldBatch)

	var rp *redecoder
	if t != nil {
		rp = newRedecoder(sys, train, test)
	}
	var (
		mem      = watchMemory()
		setup    setups
		folds    []float64
		stats    streamStats
		ref      [][]corpus.Tag
		rounds   int
		deadline = time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	)
	defer mem.stop()
	var st *graphner.Streamer
	newStreamer := func() (err error) {
		st, err = graphner.NewStreamer(sys, test)
		return err
	}
	for rounds < 1 || time.Now().Before(deadline) {
		if err := setup.time(newStreamer); err != nil {
			return err
		}
		if rounds == 0 {
			g := st.Graph()
			stats.vertices, stats.edges = g.NumVertices(), g.NumEdges()
		}
		own := st.Updater().Clone()
		ids, texts := textsOf(batches.Generate())
		for f := 0; f < sz.Folds; f++ {
			lo, hi := f*sz.FoldBatch, (f+1)*sz.FoldBatch
			d, err := fold(t, st, own, rp, ids[lo:hi], texts[lo:hi], &stats)
			if err != nil {
				return fmt.Errorf("round %d fold %d: %w", rounds, f, err)
			}
			folds = append(folds, seconds(d))
		}
		if rounds == 0 {
			ref = st.Tags()
		}
		rounds++
	}
	// setup_s is a median of several set-ups, also when few rounds fit.
	for len(setup) < minStreamSetups {
		if err := setup.time(newStreamer); err != nil {
			return err
		}
	}
	mem.finish(r)
	r.Attempted = len(folds)
	r.pass("stream.graph_equals_updater", "after each of %d folds the benchmark's graph.Updater equalled Streamer.Graph()", len(folds))

	score, err := f1(test, ref)
	if err != nil {
		return err
	}
	total := sum(folds)
	r.metric("setup_s", median(setup), "s")
	r.metric("p50_ms", 1e3*median(folds), "ms")
	r.metric("p90_ms", 1e3*nearestRank(folds, 90), "ms")
	r.metric("capacity_sps", float64(len(folds)*sz.FoldBatch)/total, "sentences/s")
	r.metric("f1", score, "fraction")
	r.Samples = map[string][]float64{"fold_s": folds, "setup_s": setup}
	if t == nil {
		return nil
	}

	r.pass("stream.redecode_replay", "replayed re-decodes matched Streamer.Tags() for %d sentences", stats.redecoded)
	nf := float64(len(folds))
	lt := t.selfTimes(func(int) bool { return true })
	replayed := lt.self("crf.compile") + lt.self("crf.posteriors") + lt.self("graph.update") + lt.self("graphner.combine") + lt.self("crf.decode")
	warm := lt.self("graphner.add_unlabelled") - replayed
	for _, name := range []string{"tokenize", "crf.compile", "crf.posteriors", "graph.update", "graphner.combine", "crf.decode"} {
		r.layer(name+".self_s", seconds(lt.self(name))/nf, "s")
	}
	r.layer("propagate.warm.self_s", seconds(warm)/nf, "s") // derived: fold minus the replayed parts
	perSent := func(name string, n int) float64 { return micros(lt.self(name)) / float64(max(n, 1)) }
	batch := len(folds) * sz.FoldBatch
	opSpans := 3.0 // graphner.fold, tokenize, graphner.add_unlabelled
	layers := map[string]value{
		"tokenize.us_per_sentence":         {perSent("tokenize", batch), "us"},
		"crf.compile.us_per_sentence":      {perSent("crf.compile", batch), "us"},
		"crf.posteriors.us_per_sentence":   {perSent("crf.posteriors", batch), "us"},
		"graphner.combine.us_per_sentence": {perSent("graphner.combine", stats.redecoded), "us"},
		"crf.decode.us_per_sentence":       {perSent("crf.decode", stats.redecoded), "us"},
		"crf.train.instances":              {float64(len(train.Sentences)), "count"},
		"crf.train.features":               {float64(sys.Model().NumFeatures), "count"},
		"graph.build.vertices":             {float64(stats.vertices), "count"},
		"graph.build.edges":                {float64(stats.edges), "count"},
		"graph.update.dirty_rows":          {float64(stats.dirty) / nf, "count"},
		"graph.update.repaired_rows":       {float64(stats.repaired) / nf, "count"},
		"graph.update.rescanned_rows":      {float64(stats.rescanned) / nf, "count"},
		"graph.update.new_vertices":        {float64(stats.newVertices) / nf, "count"},
		"graph.update.repair_ratio":        {float64(stats.repaired) / float64(max(stats.dirty, 1)), "ratio"},
		"propagate.warm.sweeps":            {float64(stats.sweeps) / nf, "count"},
		"propagate.warm.row_updates":       {float64(stats.rowUpdates) / nf, "count"},
		"propagate.warm.converged_folds":   {float64(stats.converged), "count"},
		"graphner.redecode_ratio":          {float64(stats.redecoded) / (nf * float64(len(test.Sentences))), "ratio"},
		"trace.overhead_pct":               {100 * opSpans * seconds(spanCost()) / (total / nf), "%"},
		"trace.residual_pct":               {100 * seconds(lt.self("graphner.fold")+min(warm, 0)) / total, "%"},
	}
	for k, v := range layers {
		r.layer(k, v.Value, v.Unit)
	}
	zeroLayers(r)
	return nil
}

// minStreamSetups is how many NewStreamer set-ups setup_s is the median
// of at least; each takes about a second.
const minStreamSetups = 3

// streamStats sums what the folds reported.
type streamStats struct {
	vertices, edges                         int
	dirty, repaired, rescanned, newVertices int
	sweeps, rowUpdates, converged           int
	redecoded                               int
}

// fold runs one timed fold and, untimed, the checks and replays that
// follow it. It returns the fold's time: tokenizing the batch plus
// AddUnlabelled.
func fold(t *tracer, st *graphner.Streamer, own *graph.Updater, rp *redecoder, ids, texts []string, stats *streamStats) (time.Duration, error) {
	t.newTrace()
	oldN := st.Graph().NumVertices()
	start := time.Now()
	op := t.begin("graphner.fold")
	var batch *corpus.Corpus
	t.do("tokenize", len(texts), func() { batch = fromText(ids, texts) })
	var res graphner.StreamResult
	var err error
	t.do("graphner.add_unlabelled", len(texts), func() { res, err = st.AddUnlabelled(batch) })
	t.end(op, len(texts))
	d := time.Since(start)
	if err != nil {
		return 0, err
	}

	if rp != nil {
		rp.batch(t, batch)
	}
	t.do("graph.update", len(texts), func() { _, err = own.AddSentences(batch.StripLabels().Sentences) })
	if err != nil {
		return 0, err
	}
	if !own.Graph().Equal(st.Graph()) {
		return 0, fmt.Errorf("the benchmark's graph.Updater diverged from Streamer.Graph()")
	}

	u, w := res.Update, res.Warm
	stats.dirty += len(u.DirtyRows)
	stats.repaired += u.RepairedRows
	stats.rescanned += u.RescannedRows
	stats.newVertices += u.NewVertices
	stats.sweeps += w.Sweeps
	stats.rowUpdates += w.Updates
	if w.Converged {
		stats.converged++
	}
	if rp == nil {
		return d, nil
	}
	n, err := rp.redecode(t, st, oldN, w.Touched)
	if err != nil {
		return 0, err
	}
	if n != res.Redecoded {
		return 0, fmt.Errorf("replay re-decoded %d test sentences, AddUnlabelled %d", n, res.Redecoded)
	}
	stats.redecoded += n
	return d, nil
}

// redecoder replays the parts of a fold that run outside graph
// maintenance and propagation: the batch's compile and posteriors, and
// the combine and Viterbi re-decode of the test sentences whose beliefs
// moved.
type redecoder struct {
	sys   *graphner.System
	cfg   graphner.Config
	test  *corpus.Corpus
	post  [][][]float64 // CRF posteriors of the test sentences
	trans [][]float64
}

func newRedecoder(sys *graphner.System, train, test *corpus.Corpus) *redecoder {
	return &redecoder{
		sys:   sys,
		cfg:   sys.Config(),
		test:  test,
		post:  sys.Posteriors(test.StripLabels()),
		trans: graphner.GoldTransitions(train),
	}
}

// batch replays the compile and posteriors AddUnlabelled runs on a batch.
func (rp *redecoder) batch(t *tracer, batch *corpus.Corpus) {
	stripped := batch.StripLabels()
	ins := make([]*crf.Instance, len(stripped.Sentences))
	comp, model := rp.sys.Compiler(), rp.sys.Model()
	t.do("crf.compile", len(ins), func() {
		parallel(rp.cfg.Workers, len(ins), func(i int) { ins[i] = comp.CompileSentence(stripped.Sentences[i]) })
	})
	post := make([][][]float64, len(ins))
	t.do("crf.posteriors", len(ins), func() {
		parallel(rp.cfg.Workers, len(ins), func(i int) { post[i] = model.Posteriors(ins[i]) })
	})
}

// redecode re-decodes the test sentences containing a vertex that
// existed before the fold and whose belief moved, as AddUnlabelled does,
// and checks the tags against the streamer's.
func (rp *redecoder) redecode(t *tracer, st *graphner.Streamer, oldN int, touched []bool) (int, error) {
	g := st.Graph()
	var list []int
	for i, s := range rp.test.Sentences {
		words := s.Words()
		for j := range words {
			if v := g.Lookup(corpus.Trigram(words, j)); v >= 0 && v < oldN && touched[v] {
				list = append(list, i)
				break
			}
		}
	}
	X := st.VertexBeliefs()
	tags, err := combineDecode(t, rp.cfg, len(list),
		func(k int) []string { return rp.test.Sentences[list[k]].Words() },
		func(k int) [][]float64 { return rp.post[list[k]] },
		g, func(v int) []float64 { return X[v*corpus.NumTags : (v+1)*corpus.NumTags] },
		rp.trans, rp.sys.Model().BIO)
	if err != nil {
		return 0, err
	}
	got := st.Tags()
	for k, i := range list {
		if !sameTags(tags[k], got[i]) {
			return 0, fmt.Errorf("replayed re-decode of test sentence %d differs from Streamer.Tags()", i)
		}
	}
	return len(list), nil
}
