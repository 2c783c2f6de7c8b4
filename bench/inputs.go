package main

import (
	"runtime"
	"sync"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/graphner"
	"repro/internal/tokenize"
)

// sizes are the input sizes of a run. Every workload trains the same
// system on the same kind of corpus, so one set serves all four.
type sizes struct {
	// Sentences is the BC2GM corpus size, split 3:1 into train and test.
	// The stream workload starts from a smaller corpus split evenly, so
	// that several rounds of folds fit in the measured phase and its test
	// set is not smaller than pipeline's.
	Sentences     int `json:"sentences"`
	StreamTrain   int `json:"stream_train"`
	StreamTest    int `json:"stream_test"`
	CRFIterations int `json:"crf_iterations"`
	// Folds batches of FoldBatch unseen sentences per stream round.
	Folds     int `json:"folds"`
	FoldBatch int `json:"fold_batch"`
	// Offered open-loop rates in requests per second; multiples of 1000,
	// since requests are released in 1 ms bursts.
	CachedRate int `json:"cached_rate"`
	NovelRate  int `json:"novel_rate"`
	// NovelTexts is how many unseen texts serve-novel cycles through:
	// a text comes back only after its worker's compile cache (4096
	// entries, cleared when full) has dropped it.
	NovelTexts int `json:"novel_texts"`
	// ReplayRequests is how many requests the traced serve run replays on
	// one thread.
	ReplayRequests int `json:"replay_requests"`
}

func sizesFor(short bool) sizes {
	if short {
		return sizes{Sentences: 200, StreamTrain: 100, StreamTest: 100, CRFIterations: 15, Folds: 2, FoldBatch: 32, CachedRate: 2000, NovelRate: 1000, NovelTexts: 1000, ReplayRequests: 400}
	}
	return sizes{Sentences: 1200, StreamTrain: 300, StreamTest: 300, CRFIterations: 40, Folds: 3, FoldBatch: 64, CachedRate: 10000, NovelRate: 3000, NovelTexts: 16000, ReplayRequests: 10000}
}

// systemConfig is the configuration every workload trains with: order-1
// CRF, 40 L-BFGS iterations (fewer in short runs), K=10, exact k-NN.
func systemConfig(sz sizes) graphner.Config {
	cfg := graphner.Default()
	cfg.Order = crf.Order1
	cfg.CRFIterations = sz.CRFIterations
	return cfg
}

func synthConfig(seed int64, n int) synth.Config {
	cfg := synth.DefaultConfig(synth.BC2GM, seed)
	cfg.Sentences = n
	return cfg
}

// generator makes BC2GM corpora of n sentences from seed; each Generate
// call continues the same stream of sentences.
func generator(seed int64, n int) *synth.Generator { return synth.NewGenerator(synthConfig(seed, n)) }

// split generates the workload corpus and splits it 3:1.
func split(seed int64, n int) (train, test *corpus.Corpus) {
	return synth.GenerateSplit(synthConfig(seed, n))
}

// fromText builds an unlabelled corpus from raw sentences, as a user's
// input arrives: one tokenize.Sentence call per text.
func fromText(ids, texts []string) *corpus.Corpus {
	c := corpus.New()
	c.Sentences = make([]*corpus.Sentence, len(texts))
	for i, text := range texts {
		c.Sentences[i] = &corpus.Sentence{ID: ids[i], Text: text, Tokens: tokenize.Sentence(text)}
	}
	return c
}

func textsOf(c *corpus.Corpus) (ids, texts []string) {
	ids = make([]string, len(c.Sentences))
	texts = make([]string, len(c.Sentences))
	for i, s := range c.Sentences {
		ids[i], texts[i] = s.ID, s.Text
	}
	return ids, texts
}

// f1 scores tags against the gold corpus with the paper's exact-match F.
func f1(gold *corpus.Corpus, tags [][]corpus.Tag) (float64, error) {
	preds, err := eval.PredictionsFromTags(gold, tags)
	if err != nil {
		return 0, err
	}
	res, err := eval.Evaluate(gold, preds)
	if err != nil {
		return 0, err
	}
	return res.Metrics().F1, nil
}

// sameTags reports whether two tag sequences are identical.
func sameTags(a, b []corpus.Tag) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstDiff returns the index of the first sentence whose tags differ,
// or -1.
func firstDiff(a, b [][]corpus.Tag) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if !sameTags(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// parallel runs fn(i) for i in [0,n) over workers goroutines with the
// strided split graphner uses, so a replayed stage runs with the same
// parallelism as the library's own.
func parallel(workers, n int, fn func(i int)) {
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

// firstErr keeps the first error reported by parallel workers.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
