package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/graphner"
	"repro/internal/propagate"
)

// runPipeline times the batch job a CLI user runs: graphner.Train on the
// labelled split, then System.Test on the held-out split, which arrives as
// raw text. Jobs repeat until the measured phase is over, with no warm-up:
// every CLI run pays the cold cost. The set-up is making the corpus.
//
// The traced run alternates untraced jobs with jobs replayed from the
// layers' public calls, one span per call; every replay must reproduce
// System.Test's tags exactly.
func runPipeline(o options, t *tracer, r *result) error {
	sz := sizesFor(o.Short)
	r.Params = sz
	mem := watchMemory()
	defer mem.stop()
	var (
		train, test *corpus.Corpus
		setup       setups
	)
	generate := func() error {
		train, test = split(o.Seed, sz.Sentences)
		return nil
	}
	for i := 0; i < minSetups; i++ {
		if err := setup.time(generate); err != nil {
			return err
		}
	}
	ids, texts := textsOf(test)
	cfg := systemConfig(sz)

	var (
		ref                 *graphner.Output
		jobs, trains, tests []float64 // the measured jobs: untraced, or traced in a traced run
		plain               []float64 // untraced jobs of a traced run
		tracedIDs           = map[int]bool{}
		last                *replay
		resolved            graphner.Config
		deadline            = time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
		reps, tracedReps    int
		minReps             = 2
	)
	for reps < minReps || time.Now().Before(deadline) {
		if reps > 0 {
			if err := setup.time(generate); err != nil {
				return err
			}
		}
		runtime.GC() // each job starts from a collected heap, as a CLI process does
		if t != nil && reps%2 == 1 {
			t.newTrace()
			tracedIDs[t.trace] = true
			rp, err := replayJob(t, train, ids, texts, resolved)
			if err != nil {
				return err
			}
			if i := firstDiff(rp.tags, ref.Tags); i >= 0 {
				return fmt.Errorf("replayed TEST differs from System.Test at test sentence %d", i)
			}
			if i := firstDiff(rp.baseline, ref.BaselineTags); i >= 0 {
				return fmt.Errorf("replayed baseline decode differs from System.Test at test sentence %d", i)
			}
			jobs = append(jobs, seconds(rp.job))
			trains = append(trains, seconds(rp.train))
			tests = append(tests, seconds(rp.test))
			last = rp
			tracedReps++
			reps++
			continue
		}
		start := time.Now()
		sys, err := graphner.Train(train, cfg)
		if err != nil {
			return err
		}
		trained := time.Since(start)
		out, err := sys.Test(fromText(ids, texts))
		if err != nil {
			return err
		}
		job := time.Since(start)
		if ref == nil {
			ref, resolved = out, sys.Config()
			r.recordConfig(resolved)
		} else {
			if i := firstDiff(out.Tags, ref.Tags); i >= 0 {
				return fmt.Errorf("job %d tags differ from job 0 at test sentence %d", reps, i)
			}
			if i := firstDiff(out.BaselineTags, ref.BaselineTags); i >= 0 {
				return fmt.Errorf("job %d baseline tags differ from job 0 at test sentence %d", reps, i)
			}
		}
		if t != nil {
			plain = append(plain, seconds(job))
		} else {
			jobs = append(jobs, seconds(job))
			trains = append(trains, seconds(trained))
			tests = append(tests, seconds(job-trained))
		}
		reps++
	}
	mem.finish(r)
	r.Attempted = reps
	r.pass("pipeline.tags_repeat", "%d untraced jobs gave identical tags", reps-tracedReps)
	if t != nil {
		r.pass("pipeline.replay_equals_test", "%d replayed jobs reproduced System.Test's %d test sentences", tracedReps, len(test.Sentences))
	}

	score, err := f1(test, ref.Tags)
	if err != nil {
		return err
	}
	total := sum(jobs)
	r.metric("setup_s", median(setup), "s")
	r.metric("p50_ms", 1e3*median(jobs), "ms")
	r.metric("p90_ms", 1e3*nearestRank(jobs, 90), "ms")
	r.metric("capacity_sps", float64(sz.Sentences*len(jobs))/total, "sentences/s")
	r.metric("f1", score, "fraction")
	r.metric("train_s", median(trains), "s")
	r.metric("test_s", median(tests), "s")
	r.Samples = map[string][]float64{"job_s": jobs, "train_s": trains, "test_s": tests}
	if t == nil {
		return nil
	}

	lt := t.selfTimes(func(id int) bool { return tracedIDs[id] })
	n := float64(tracedReps)
	for name, x := range lt {
		r.layer(name+".self_s", seconds(x.Self)/n, "s")
	}
	// The containers' self time is the part of a job no layer span covers.
	containers := lt.self("graphner.job") + lt.self("graphner.train") + lt.self("graphner.test")
	layers := map[string]value{
		"tokenize.us_per_sentence":         {lt.usPer("tokenize"), "us"},
		"crf.compile.us_per_sentence":      {lt.usPer("crf.compile"), "us"},
		"crf.posteriors.us_per_sentence":   {lt.usPer("crf.posteriors"), "us"},
		"graphner.combine.us_per_sentence": {lt.usPer("graphner.combine"), "us"},
		"crf.decode.us_per_sentence":       {lt.usPer("crf.decode"), "us"},
		"crf.train.instances":              {float64(len(train.Sentences)), "count"},
		"crf.train.features":               {float64(last.features), "count"},
		"graph.build.vertices":             {float64(last.vertices), "count"},
		"graph.build.edges":                {float64(last.edges), "count"},
		"propagate.run.sweeps":             {float64(resolved.Iterations), "count"},
		"trace.overhead_pct":               {100 * (median(jobs)/median(plain) - 1), "%"},
		"trace.residual_pct":               {100 * seconds(containers) / total, "%"},
	}
	for k, v := range layers {
		r.layer(k, v.Value, v.Unit)
	}
	zeroLayers(r)
	return nil
}

// replay is what one replayed job produced.
type replay struct {
	tags, baseline   [][]corpus.Tag
	job, train, test time.Duration
	features         int
	vertices, edges  int
}

// replayJob rebuilds graphner.Train and System.Test from the public calls
// of each layer, in the order and with the parallelism the library uses,
// one span per call. cfg must be a resolved System.Config with the
// default AllFeatures vertex representation and one shard.
func replayJob(t *tracer, train *corpus.Corpus, ids, texts []string, cfg graphner.Config) (*replay, error) {
	rp := &replay{}
	start := time.Now()
	root := t.begin("graphner.job")

	tr := t.begin("graphner.train")
	comp := crf.NewCompiler(cfg.Extractor)
	var data []*crf.Instance
	t.do("crf.compile", len(train.Sentences), func() {
		data = comp.Compile(train)
		rp.features = comp.FreezeAlphabet()
	})
	trainer := crf.NewTrainer(cfg.Order)
	trainer.L2, trainer.MaxIterations, trainer.Workers = cfg.L2, cfg.CRFIterations, cfg.Workers
	var model *crf.Model
	var err error
	t.do("crf.train", len(data), func() { model, err = trainer.Train(data, rp.features) })
	if err != nil {
		return nil, err
	}
	var xref map[corpus.NGram][]float64
	t.do("graphner.reference", len(train.Sentences), func() { xref = graphner.ReferenceDistributions(train) })
	t.end(tr, len(train.Sentences))
	rp.train = time.Since(start)

	te := t.begin("graphner.test")
	var input *corpus.Corpus
	t.do("tokenize", len(texts), func() { input = fromText(ids, texts) })
	union := corpus.New()
	union.Sentences = append(append(union.Sentences, train.Sentences...), input.Sentences...)
	ins := make([]*crf.Instance, len(union.Sentences))
	t.do("crf.compile", len(ins), func() {
		parallel(cfg.Workers, len(ins), func(i int) { ins[i] = comp.CompileSentence(union.Sentences[i]) })
	})
	var g *graph.Graph
	t.do("graph.build", len(union.Sentences), func() { g, err = graph.Build(union, builderConfig(cfg)) })
	if err != nil {
		return nil, err
	}
	rp.vertices, rp.edges = g.NumVertices(), g.NumEdges()
	post := make([][][]float64, len(ins))
	t.do("crf.posteriors", len(ins), func() {
		parallel(cfg.Workers, len(ins), func(i int) { post[i] = model.Posteriors(ins[i]) })
	})
	var X [][]float64
	t.do("graphner.average", len(ins), func() { X = graphner.AveragePosteriors(g, union, post) })
	var trans, xrefRows [][]float64
	var labelled []bool
	t.do("graphner.prepare", g.NumVertices(), func() {
		trans = graphner.GoldTransitions(train)
		xrefRows = make([][]float64, g.NumVertices())
		labelled = make([]bool, g.NumVertices())
		for v, ng := range g.Vertices {
			if d, ok := xref[ng]; ok {
				xrefRows[v], labelled[v] = d, true
			}
		}
	})
	pcfg := propagate.Config{Mu: cfg.Mu, Nu: cfg.Nu, Iterations: cfg.Iterations, Workers: cfg.Workers, LossEvery: cfg.LossEvery}
	t.do("propagate.run", g.NumVertices(), func() { _, err = propagate.Run(g, X, xrefRows, labelled, pcfg) })
	if err != nil {
		return nil, err
	}

	offset, n := len(train.Sentences), len(input.Sentences)
	rp.tags, err = combineDecode(t, cfg, n,
		func(i int) []string { return input.Sentences[i].Words() },
		func(i int) [][]float64 { return post[offset+i] },
		g, func(v int) []float64 { return X[v] }, trans, model.BIO)
	if err != nil {
		return nil, err
	}
	rp.baseline = make([][]corpus.Tag, n)
	t.do("crf.decode", n, func() {
		parallel(cfg.Workers, n, func(i int) { rp.baseline[i] = model.Decode(ins[offset+i]) })
	})
	t.end(te, n)
	t.end(root, len(union.Sentences))
	rp.job = time.Since(start)
	rp.test = rp.job - rp.train
	return rp, nil
}

// builderConfig is the graph.BuilderConfig System.Test derives from its
// configuration in AllFeatures mode.
func builderConfig(cfg graphner.Config) graph.BuilderConfig {
	return graph.BuilderConfig{
		K:           cfg.K,
		Mode:        cfg.Mode,
		MIThreshold: cfg.MIThreshold,
		Extractor:   cfg.Extractor,
		MaxDF:       cfg.MaxDF,
		Workers:     cfg.Workers,
		Shards:      cfg.Shards,
		GraphMode:   cfg.GraphMode,
		LSH:         cfg.LSH,
	}
}

// combineDecode is Algorithm 1 lines 8-9 for n sentences as System.Test
// and Streamer run them: the combine of every sentence, then tempered
// Viterbi over the combined potentials, each stage in parallel under its
// own span.
func combineDecode(t *tracer, cfg graphner.Config, n int, words func(i int) []string, post func(i int) [][]float64, g *graph.Graph, belief func(v int) []float64, trans [][]float64, bio bool) ([][]corpus.Tag, error) {
	combined := make([][][]float64, n)
	t.do("graphner.combine", n, func() {
		parallel(cfg.Workers, n, func(i int) { combined[i] = combine(words(i), post(i), g, belief, cfg.Alpha) })
	})
	tags := make([][]corpus.Tag, n)
	var fe firstErr
	t.do("crf.decode", n, func() {
		parallel(cfg.Workers, n, func(i int) {
			tg, err := crf.DecodeWithPotentialsT(combined[i], trans, bio, cfg.TransitionPower)
			if err != nil {
				fe.set(err)
				return
			}
			tags[i] = tg
		})
	})
	return tags, fe.get()
}

// combine is Algorithm 1 line 8 for one sentence, written as System.Test
// writes it: α·P_s + (1−α)·X at positions whose 3-gram is a graph vertex
// with a belief row, the CRF posterior elsewhere.
func combine(words []string, post [][]float64, g *graph.Graph, belief func(v int) []float64, alpha float64) [][]float64 {
	out := make([][]float64, len(words))
	for j := range words {
		row := make([]float64, corpus.NumTags)
		var gb []float64
		if v := g.Lookup(corpus.Trigram(words, j)); v >= 0 {
			gb = belief(v)
		}
		for y := 0; y < corpus.NumTags; y++ {
			if gb != nil {
				row[y] = alpha*post[j][y] + (1-alpha)*gb[y]
			} else {
				row[y] = post[j][y]
			}
		}
		out[j] = row
	}
	return out
}
