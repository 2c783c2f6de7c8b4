package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/graphner"
	"repro/internal/serving"
	"repro/internal/tokenize"
)

// runServeCached offers requests for the frozen sentences, cycling over
// them, so after the warm-up every request hits the workers' compile
// caches.
func runServeCached(o options, t *tracer, r *result) error { return runServe(o, t, r, false) }

// runServeNovel offers requests for sentences no request repeats and the
// artifact never saw, so every request tokenizes and compiles.
func runServeNovel(o options, t *tracer, r *result) error { return runServe(o, t, r, true) }

// phases splits the measured phase of a serve workload: a discarded
// open-loop warm-up, then rounds of one open-loop segment followed by one
// closed-loop capacity slice. Alternating the two spreads the samples of
// both over the whole run, so a few seconds of a loaded machine move a
// few samples of each rather than all of one.
type phases struct {
	Warm    time.Duration `json:"warm_ns"`
	Segment time.Duration `json:"segment_ns"`
	Slice   time.Duration `json:"slice_ns"`
	Rounds  int           `json:"rounds"`
}

func phasesFor(total time.Duration) phases {
	const rounds = 24
	warm := total / 25
	half := (total - warm) / (2 * rounds)
	return phases{Warm: warm, Segment: half, Slice: half, Rounds: rounds}
}

// serveParams are the parameters a serve result records.
type serveParams struct {
	sizes
	Rate    int    `json:"rate"`
	Phases  phases `json:"phases"`
	Senders int    `json:"senders"`
	Clients int    `json:"clients"`
	Texts   int    `json:"texts"`
}

// served is what a serve workload prepares before its set-up: the frozen
// artifact and the requests with their expected answers.
type served struct {
	blob     []byte
	texts    []string
	want     [][]corpus.Tag
	f1       float64
	train    int
	features int
	freeze   time.Duration
}

// prepareServe trains the system, runs System.Test over the held-out split
// and freezes it into an artifact, as an operator does before starting a
// server. The requests are the frozen sentences or, for novel, unseen
// ones tagged offline by a single-thread Tagger.
func prepareServe(o options, sz sizes, novel bool, r *result) (*served, error) {
	train, test := split(o.Seed, sz.Sentences)
	sys, err := graphner.Train(train, systemConfig(sz))
	if err != nil {
		return nil, err
	}
	r.recordConfig(sys.Config())
	out, err := sys.Test(test)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	art, err := sys.Freeze(test, out)
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if _, err := art.WriteTo(&blob); err != nil {
		return nil, err
	}
	p := &served{blob: blob.Bytes(), freeze: time.Since(start), train: len(train.Sentences), features: sys.Model().NumFeatures}
	gold := test
	_, p.texts = textsOf(test)
	p.want = out.Tags
	if novel {
		if gold, err = unseen(o.Seed+2, sz.NovelTexts, train, test); err != nil {
			return nil, err
		}
		_, p.texts = textsOf(gold)
		if p.want, err = reference(art, p.texts); err != nil {
			return nil, err
		}
	}
	if p.f1, err = f1(gold, p.want); err != nil {
		return nil, err
	}
	return p, nil
}

// runServe serves a frozen artifact in-process from one serving.Server
// with the default configuration. The set-up is what a server process
// pays at start: ReadArtifact plus NewServer. Every response is checked
// against the expected tags.
func runServe(o options, t *tracer, r *result, novel bool) error {
	sz := sizesFor(o.Short)
	ph := phasesFor(time.Duration(o.Seconds * float64(time.Second)))
	p, err := prepareServe(o, sz, novel, r)
	if err != nil {
		return err
	}
	runtime.GC() // the training data is garbage now; a server never held it

	mem := watchMemory()
	defer mem.stop()
	var scfg serving.Config
	r.Provenance.Serving = scfg
	var (
		setup   setups
		reads   []float64
		started *serving.Server
		art     *graphner.Artifact
	)
	start := func() error {
		begin := time.Now()
		var err error
		if art, err = graphner.ReadArtifact(bytes.NewReader(p.blob)); err != nil {
			return err
		}
		reads = append(reads, seconds(time.Since(begin)))
		started, err = serving.NewServer(art, scfg)
		return err
	}
	// again sets up a server that is closed at once; the workload serves
	// from the last of the first minSetups set-ups.
	again := func() error {
		err := setup.time(start)
		if started != nil {
			started.Close()
			started = nil
		}
		return err
	}
	for i := 1; i < minSetups; i++ {
		if err := again(); err != nil {
			return err
		}
	}
	if err := setup.time(start); err != nil {
		return err
	}
	srv, loaded := started, art
	defer srv.Close()
	r.metric("f1", p.f1, "fraction")

	rate := sz.CachedRate
	if novel {
		rate = sz.NovelRate
	}
	procs := runtime.GOMAXPROCS(0)
	params := serveParams{
		sizes:   sz,
		Rate:    rate,
		Phases:  ph,
		Senders: 2 * 4 * procs * 32, // twice the default queue depth, 4×Workers×BatchMax
		Clients: 2 * procs,
		Texts:   len(p.texts),
	}
	r.Params = params

	ld := newLoad(srv, p.texts, p.want, rate, params.Senders)
	warm := ld.segment(ph.Warm)
	var segs []segment
	var slices []float64
	for i := 0; i < ph.Rounds; i++ {
		segs = append(segs, ld.segment(ph.Segment))
		slices = append(slices, ld.capacity(params.Clients, ph.Slice))
		if err := again(); err != nil {
			return err
		}
	}
	mem.finish(r)
	if ld.wrong > 0 {
		return fmt.Errorf("%d responses differed from the expected tags", ld.wrong)
	}
	r.metric("setup_s", median(setup), "s")
	r.pass("serve.responses_match", "all %d answered requests returned the expected tags", ld.next-ld.failed)
	r.Attempted = ld.next
	r.Failed = ld.failed
	ol := summarize(segs, rate, ph)
	r.metric("p50_ms", median(ol.segP50), "ms")
	r.metric("p90_ms", median(ol.segP90), "ms")
	r.metric("p99_ms", median(ol.segP99), "ms")
	r.metric("capacity_sps", median(slices), "sentences/s")
	r.Samples = map[string][]float64{"segment_p50_ms": ol.segP50, "segment_p90_ms": ol.segP90, "segment_p99_ms": ol.segP99, "segment_rps": ol.segRate, "capacity_slice_sps": slices}
	r.layer("gen.late_p99_us", micros(ol.lateP99), "us")
	r.layer("gen.achieved_rps", median(ol.segRate), "1/s")
	r.layer("gen.valid_segments", float64(ol.valid), "count")
	if t == nil {
		return nil
	}

	rp, err := replayRequests(t, srv.Tagger(), loaded, p.texts, p.want, min(sz.ReplayRequests, ld.next), warm.n)
	if err != nil {
		return err
	}
	r.pass("serve.replay_matches", "%d requests replayed on one thread through the layers returned the expected tags", rp.n)
	lt := t.selfTimes(func(id int) bool { return id == rp.trace })
	n := float64(rp.n)
	var open serving.Stats // the server's counters over the measured segments
	for _, sg := range segs {
		open.Served += sg.stats.Served
		open.Shed += sg.stats.Shed
		open.Overloaded += sg.stats.Overloaded
		open.Batches += sg.stats.Batches
	}
	// Request i asks for texts[i % len(texts)], so requests from index
	// len(texts) on repeat an earlier text.
	repeats := float64(max(0, ld.next-len(p.texts))) / float64(ld.next)
	layers := map[string]value{
		"tokenize.us_per_sentence":         {micros(lt.self("tokenize")) / n, "us"},
		"crf.compile.us_per_sentence":      {micros(lt.self("crf.compile")) / n, "us"},
		"crf.posteriors.us_per_sentence":   {micros(lt.self("crf.posteriors")) / n, "us"},
		"graphner.combine.us_per_sentence": {micros(lt.self("graphner.combine")) / n, "us"},
		"crf.decode.us_per_sentence":       {micros(lt.self("crf.decode")) / n, "us"},
		"crf.train.instances":              {float64(p.train), "count"},
		"crf.train.features":               {float64(p.features), "count"},
		"graph.build.vertices":             {float64(loaded.Graph().NumVertices()), "count"},
		"graph.build.edges":                {float64(loaded.Graph().NumEdges()), "count"},
		"graphner.artifact.bytes":          {float64(len(p.blob)), "bytes"},
		"graphner.freeze_s":                {seconds(p.freeze), "s"},
		"graphner.artifact.read_s":         {median(reads), "s"},
		"serving.batch_size_mean":          {float64(open.Served) / float64(max(open.Batches, 1)), "count"},
		"serving.overloaded":               {float64(open.Overloaded), "count"},
		"serving.shed":                     {float64(open.Shed), "count"},
		"serving.repeat_ratio":             {repeats, "ratio"},
		"serving.service_us.p50":           {micros(rp.serviceP50), "us"},
		"serving.service_us.p99":           {micros(rp.serviceP99), "us"},
		"serving.queue_wait_us.p50":        {micros(ol.callP50 - rp.serviceP50), "us"}, // derived
		"serving.queue_wait_us.p99":        {micros(ol.callP99 - rp.serviceP99), "us"}, // derived
		"trace.overhead_pct":               {100 * (seconds(rp.traced)/seconds(rp.service) - 1), "%"},
		"trace.residual_pct":               {100 * seconds(lt.self("serving.request")) / seconds(rp.traced), "%"},
	}
	for k, v := range layers {
		r.layer(k, v.Value, v.Unit)
	}
	zeroLayers(r)
	return nil
}

// unseen generates need distinct sentences from seed that occur in
// neither split of the workload corpus, with their gold annotation.
func unseen(seed int64, need int, train, test *corpus.Corpus) (*corpus.Corpus, error) {
	known := map[string]bool{}
	for _, c := range []*corpus.Corpus{train, test} {
		for _, s := range c.Sentences {
			known[s.Text] = true
		}
	}
	for n := need + need/10 + 100; n < 64*need+1000; n *= 2 {
		c := generator(seed, n).Generate()
		gold := corpus.New()
		seen := map[string]bool{}
		for _, s := range c.Sentences {
			if known[s.Text] || seen[s.Text] {
				continue
			}
			seen[s.Text] = true
			gold.Sentences = append(gold.Sentences, s)
			if alts, ok := c.Alternatives[s.ID]; ok {
				gold.Alternatives[s.ID] = alts
			}
		}
		if len(gold.Sentences) >= need {
			gold.Sentences = gold.Sentences[:need]
			return gold, nil
		}
	}
	return nil, fmt.Errorf("could not generate %d unseen sentences", need)
}

// reference tags every text offline on one thread through a fresh
// Tagger, the expected answer for every request that asks for it.
func reference(art *graphner.Artifact, texts []string) ([][]corpus.Tag, error) {
	tg, err := serving.NewTagger(art, nil, 0)
	if err != nil {
		return nil, err
	}
	sc := tg.NewScratch()
	out := make([][]corpus.Tag, len(texts))
	buf := make([]corpus.Tag, 256)
	for i, text := range texts {
		n, err := tagInto(tg, sc, text, &buf)
		if err != nil {
			return nil, err
		}
		out[i] = append([]corpus.Tag(nil), buf[:n]...)
	}
	return out, nil
}

// tagInto calls Tagger.TagInto, growing buf when the sentence is longer.
func tagInto(tg *serving.Tagger, sc *serving.Scratch, text string, buf *[]corpus.Tag) (int, error) {
	n, err := tg.TagInto(sc, text, *buf)
	if err == serving.ErrShortBuffer {
		*buf = make([]corpus.Tag, n)
		n, err = tg.TagInto(sc, text, *buf)
	}
	return n, err
}

// failedLatency stands for +∞: a refused, shed or failed request misses
// every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// load drives one server through a run. Request i asks for
// texts[i % len(texts)]; the open-loop segments and the capacity slices
// continue one sequence, so a novel text comes back only after
// len(texts) requests, long after the workers' caches dropped it.
type load struct {
	srv     *serving.Server
	texts   []string
	want    [][]corpus.Tag
	rate    int
	senders int
	// next is the index of the next request; failed and wrong count the
	// requests so far that failed or returned other tags.
	next, failed, wrong int
}

func newLoad(srv *serving.Server, texts []string, want [][]corpus.Tag, rate, senders int) *load {
	return &load{srv: srv, texts: texts, want: want, rate: rate, senders: senders}
}

// answer sends request i and checks the answer. It returns the time
// Server.TagInto took, or failedLatency.
func (ld *load) answer(i int, buf []corpus.Tag, failed, wrong *atomic.Int64) time.Duration {
	k := i % len(ld.texts)
	start := time.Now()
	m, err := ld.srv.TagInto(ld.texts[k], time.Time{}, buf)
	d := time.Since(start)
	switch {
	case err != nil:
		failed.Add(1)
	case !sameTags(buf[:m], ld.want[k]):
		wrong.Add(1)
	default:
		return d
	}
	return failedLatency
}

// segment is what one open-loop segment measured.
type segment struct {
	n int
	// lat times each request from when it was due, call from Server.TagInto
	// to its return; late is how late the generator released it. All three
	// are sorted.
	lat, call, late []time.Duration
	rate            float64       // requests per second the generator released
	stats           serving.Stats // the server's counters over the segment
}

// segment offers ld.rate requests per second for d, request k of the
// segment due at t0 + k/rate, to a fixed set of sender goroutines larger
// than the server's queue, so overload shows as refusals rather than as a
// stalled generator. It returns when every request has been answered.
//
// The generator spins, yielding the processor on every pass, instead of
// sleeping: an idle Go process wakes from timers up to a millisecond late
// on Linux, and a sleeping generator would make its own lateness the
// largest part of every latency.
func (ld *load) segment(d time.Duration) segment {
	n := int(int64(ld.rate) * int64(d) / int64(time.Second))
	s := segment{n: n, lat: make([]time.Duration, n), call: make([]time.Duration, n), late: make([]time.Duration, 0, n)}
	var failed, wrong atomic.Int64
	before := ld.srv.Stats()
	t0 := time.Now().Add(time.Millisecond)
	due := func(k int) time.Time { return t0.Add(time.Duration(int64(k) * int64(time.Second) / int64(ld.rate))) }
	jobs := make(chan int, ld.senders) // one slot per sender: a full channel means every sender is busy
	var wg sync.WaitGroup
	for w := 0; w < ld.senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]corpus.Tag, 256)
			for k := range jobs {
				c := ld.answer(ld.next+k, buf, &failed, &wrong)
				s.call[k], s.lat[k] = c, failedLatency
				if c != failedLatency {
					s.lat[k] = time.Since(due(k))
				}
			}
		}()
	}
	for k := 0; k < n; runtime.Gosched() {
		now := time.Now()
		for ; k < n && !due(k).After(now); k++ {
			s.late = append(s.late, now.Sub(due(k)))
			jobs <- k
		}
	}
	s.rate = float64(n) / time.Since(t0).Seconds()
	close(jobs)
	wg.Wait()
	after := ld.srv.Stats()
	s.stats = serving.Stats{
		Served:     after.Served - before.Served,
		Shed:       after.Shed - before.Shed,
		Overloaded: after.Overloaded - before.Overloaded,
		Batches:    after.Batches - before.Batches,
	}
	ld.next += n
	ld.failed += int(failed.Load())
	ld.wrong += int(wrong.Load())
	for _, ds := range [][]time.Duration{s.lat, s.call, s.late} {
		sortDurations(ds)
	}
	return s
}

// capacity runs clients that each send their next request as soon as the
// previous one returns, for d, and returns the requests answered within d
// per second.
func (ld *load) capacity(clients int, d time.Duration) float64 {
	var next, answered, failed, wrong atomic.Int64
	next.Store(int64(ld.next))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]corpus.Tag, 256)
			for time.Now().Before(deadline) {
				if ld.answer(int(next.Add(1)-1), buf, &failed, &wrong) != failedLatency && time.Now().Before(deadline) {
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	ld.next = int(next.Load())
	ld.failed += int(failed.Load())
	ld.wrong += int(wrong.Load())
	return float64(answered.Load()) / d.Seconds()
}

// openResult is what the open-loop segments measured. A segment is valid
// when the generator released at least 99% of the offered rate; the
// latency values come from the valid segments, or from all of them when
// none is.
type openResult struct {
	// Per-segment latency percentiles in milliseconds, timed from each
	// request's due time, and the released rate of every segment.
	segP50, segP90, segP99, segRate []float64
	// callP50 and callP99 time Server.TagInto over the pooled requests;
	// lateP99 is how late the generator released them.
	callP50, callP99, lateP99 time.Duration
	valid                     int
}

func summarize(segs []segment, rate int, ph phases) openResult {
	var res openResult
	use := make([]bool, len(segs))
	for i, s := range segs {
		res.segRate = append(res.segRate, s.rate)
		if use[i] = s.rate >= 0.99*float64(rate); use[i] {
			res.valid++
		}
	}
	// capped reports a +∞ percentile as the segment length, the longest
	// latency a segment can observe.
	capped := func(d time.Duration) time.Duration {
		if d == failedLatency {
			return ph.Segment
		}
		return d
	}
	var call, late []time.Duration
	for i, s := range segs {
		if res.valid > 0 && !use[i] {
			continue
		}
		res.segP50 = append(res.segP50, millis(capped(percentile(s.lat, 50))))
		res.segP90 = append(res.segP90, millis(capped(percentile(s.lat, 90))))
		res.segP99 = append(res.segP99, millis(capped(percentile(s.lat, 99))))
		call, late = append(call, s.call...), append(late, s.late...)
	}
	sortDurations(call)
	sortDurations(late)
	res.callP50, res.callP99 = capped(percentile(call, 50)), capped(percentile(call, 99))
	res.lateP99 = percentile(late, 99)
	return res
}

// replayResult is what the single-thread replay measured.
type replayResult struct {
	n, trace int
	// service sums Tagger.TagInto; traced sums the same requests replayed
	// through the layers, one span each.
	service, traced        time.Duration
	serviceP50, serviceP99 time.Duration
}

// replayRequests replays the first n requests of the open loop on one
// thread, each twice from caches that start cold: through Tagger.TagInto
// with a fresh Scratch for the service time, and through the layers it
// calls, one span each. The two alternate which goes first. The service
// percentiles leave out the first warm requests, as the open loop leaves
// out its warm-up.
func replayRequests(t *tracer, tg *serving.Tagger, art *graphner.Artifact, texts []string, want [][]corpus.Tag, n, warm int) (replayResult, error) {
	res := replayResult{n: n}
	lr, err := newLayerReplay(art)
	if err != nil {
		return res, err
	}
	sc := tg.NewScratch()
	buf := make([]corpus.Tag, 256)
	durs := make([]time.Duration, n)
	t.newTrace()
	res.trace = t.trace
	for i := 0; i < n; i++ {
		text, exp := texts[i%len(texts)], want[i%len(texts)]
		service := func() error {
			start := time.Now()
			m, err := tagInto(tg, sc, text, &buf)
			durs[i] = time.Since(start)
			if err != nil {
				return err
			}
			if !sameTags(buf[:m], exp) {
				return fmt.Errorf("replayed request %d: Tagger.TagInto returned other tags", i)
			}
			return nil
		}
		layered := func() error {
			start := time.Now()
			tags, err := lr.tag(t, text)
			res.traced += time.Since(start)
			if err != nil {
				return err
			}
			if !sameTags(tags, exp) {
				return fmt.Errorf("replayed request %d: the layers returned other tags than Tagger.TagInto", i)
			}
			return nil
		}
		first, second := service, layered
		if i%2 == 1 {
			first, second = layered, service
		}
		if err := first(); err != nil {
			return res, err
		}
		if err := second(); err != nil {
			return res, err
		}
		res.service += durs[i]
	}
	steady := durs[min(warm, n/2):]
	sortDurations(steady)
	res.serviceP50, res.serviceP99 = percentile(steady, 50), percentile(steady, 99)
	return res, nil
}

// layerReplay answers a request the way Tagger.TagInto does, from the
// artifact's parts: tokenize.Sentence and CompileSentence on a cache miss,
// PosteriorsInto, the combine with the frozen beliefs, and DecodeFlat.
type layerReplay struct {
	art        *graphner.Artifact
	comp       *crf.Compiler
	dec        *crf.PotentialDecoder
	cache      map[string]*cachedSentence
	post, comb []float64
	tags       []corpus.Tag
}

// cachedSentence is the replay's copy of a Tagger cache entry.
type cachedSentence struct {
	ins   *crf.Instance
	words []string
	verts []int32
}

// replayCacheCap is serving's default per-worker cache bound.
const replayCacheCap = 4096

func newLayerReplay(art *graphner.Artifact) (*layerReplay, error) {
	dec, err := crf.NewPotentialDecoder(art.Transitions(), art.Model().BIO, art.Config().TransitionPower)
	if err != nil {
		return nil, err
	}
	return &layerReplay{art: art, comp: art.NewCompiler(nil), dec: dec, cache: map[string]*cachedSentence{}}, nil
}

// tag answers one request under a serving.request span.
func (lr *layerReplay) tag(t *tracer, text string) ([]corpus.Tag, error) {
	const Y = corpus.NumTags
	req := t.begin("serving.request")
	ent, ok := lr.cache[text]
	if !ok {
		if len(lr.cache) >= replayCacheCap {
			clear(lr.cache)
		}
		var sent *corpus.Sentence
		t.do("tokenize", 1, func() { sent = &corpus.Sentence{Text: text, Tokens: tokenize.Sentence(text)} })
		ent = &cachedSentence{words: sent.Words()}
		t.do("crf.compile", 1, func() { ent.ins = lr.comp.CompileSentence(sent) })
		lr.cache[text] = ent
	}
	m := ent.ins.Len()
	if cap(lr.post) < m*Y {
		lr.post, lr.comb = make([]float64, m*Y), make([]float64, m*Y)
	}
	if cap(lr.tags) < m {
		lr.tags = make([]corpus.Tag, m)
	}
	post, comb, tags := lr.post[:m*Y], lr.comb[:m*Y], lr.tags[:m]
	var err error
	t.do("crf.posteriors", 1, func() { err = lr.art.Model().PosteriorsInto(ent.ins, post) })
	if err != nil {
		return nil, err
	}
	alpha, beliefs, g := lr.art.Config().Alpha, lr.art.Beliefs(), lr.art.Graph()
	t.do("graphner.combine", 1, func() {
		if ent.verts == nil {
			ent.verts = make([]int32, len(ent.words))
			for j := range ent.words {
				ent.verts[j] = int32(g.Lookup(corpus.Trigram(ent.words, j)))
			}
		}
		for j := 0; j < m; j++ {
			row := j * Y
			if v := ent.verts[j]; v >= 0 {
				b := int(v) * Y
				for y := 0; y < Y; y++ {
					comb[row+y] = alpha*post[row+y] + (1-alpha)*beliefs[b+y]
				}
			} else {
				copy(comb[row:row+Y], post[row:row+Y])
			}
		}
	})
	t.do("crf.decode", 1, func() { err = lr.dec.DecodeFlat(comb, m, tags) })
	t.end(req, 1)
	return tags, err
}
