package serving

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/graphner"
	"repro/internal/tokenize"
)

// Sentinel errors the request path returns. ErrOverloaded and
// ErrDeadlineExceeded are load-shedding outcomes, not failures: the
// server stayed healthy and told the caller to back off.
var (
	ErrOverloaded       = errors.New("serving: request queue full")
	ErrDeadlineExceeded = errors.New("serving: deadline exceeded")
	ErrClosed           = errors.New("serving: server closed")
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of request workers (default GOMAXPROCS).
	// Each owns a Scratch — a compiled-sentence cache plus flat buffers —
	// so memory scales linearly with it.
	Workers int
	// QueueDepth bounds the shared request queue; submissions beyond it
	// fail fast with ErrOverloaded (default 160×Workers).
	QueueDepth int
	// Deadline is the default per-request deadline applied when the
	// caller does not supply one; zero means no default deadline.
	Deadline time.Duration
	// CacheCap bounds each worker's compiled-sentence cache (default
	// 4096 sentences).
	CacheCap int
	// Extractor must match the artifact's training-time feature
	// configuration; nil means the plain BANNER-style extractor.
	Extractor *features.Extractor
	// Stream enables folding served traffic back into the similarity
	// graph; nil serves the frozen artifact state forever.
	Stream *StreamConfig
}

// StreamConfig configures the optional background fold-in of unlabelled
// traffic via graph.Updater + graphner.Streamer. Until the first fold the
// server answers from the frozen artifact, which is exactly the
// streamer's initial state (System.Test's graph, beliefs and tags). Each
// fold then swaps in the streamer's maintained graph and the paper's
// fixed-sweep beliefs over it, seeded from every sentence folded so far.
type StreamConfig struct {
	// BatchSize is how many distinct served sentences accumulate before
	// a background fold-in runs (default 256).
	BatchSize int
	// MaxBuffered bounds the fold-in buffer; beyond it, new sentences
	// are dropped (never blocking the serving path) until the next
	// fold-in drains the buffer (default 4×BatchSize).
	MaxBuffered int
}

// defaultQueuePerWorker is the default queue depth per worker. 160 keeps
// the in-flight load the server admitted when its workers batched (up to
// 32 requests in hand plus 128 queued per worker), so overload is still
// refused where it was; a deeper queue would hide it as latency.
const defaultQueuePerWorker = 160

// result is what a worker reports back to the submitting goroutine.
type result struct {
	n   int
	err error
}

// request is one queued tagging request. Instances are pooled; the done
// channel (capacity 1) always receives exactly one result, so a pooled
// request is never abandoned mid-flight.
type request struct {
	text     string
	deadline time.Time
	tags     []corpus.Tag
	done     chan result
}

// Server answers concurrent tagging requests over one frozen Artifact.
// Submissions enqueue onto a bounded queue; each worker takes one
// request at a time, sheds it if its deadline already passed, and
// otherwise answers it from its private Scratch. A warm request —
// sentence cached, queue uncontended — completes without heap
// allocations.
type Server struct {
	cfg    Config
	tagger *Tagger
	queue  chan *request
	done   chan struct{} // closed by Close; ends idle line-protocol connections
	wg     sync.WaitGroup

	// submitMu makes shutdown airtight: submitters hold it shared
	// around the closed-check + enqueue, Close holds it exclusively
	// while flipping closed, so no request can enter the queue once
	// Close may close it.
	submitMu sync.RWMutex
	closed   bool

	reqPool sync.Pool

	served     atomic.Int64
	shed       atomic.Int64
	overloaded atomic.Int64
	folds      atomic.Int64

	streamMu  sync.Mutex
	streamBuf []string
	streamer  *graphner.Streamer
	folding   atomic.Bool
	foldWG    sync.WaitGroup
}

// NewServer builds and starts a server over the artifact. When
// cfg.Stream is set, the constructor runs the streamer's initial
// transductive pass (train ∪ frozen), which costs a full TEST; without
// streaming, start-up is just the decoder table.
func NewServer(art *graphner.Artifact, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueuePerWorker * cfg.Workers
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = defaultCacheCap
	}
	tagger, err := NewTagger(art, cfg.Extractor, cfg.CacheCap)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		tagger: tagger,
		queue:  make(chan *request, cfg.QueueDepth),
		done:   make(chan struct{}),
	}
	s.reqPool.New = func() any { return &request{done: make(chan result, 1)} }
	if cfg.Stream != nil {
		if cfg.Stream.BatchSize <= 0 {
			cfg.Stream.BatchSize = 256
		}
		if cfg.Stream.MaxBuffered <= 0 {
			cfg.Stream.MaxBuffered = 4 * cfg.Stream.BatchSize
		}
		s.cfg.Stream = cfg.Stream
		sys, err := art.System(cfg.Extractor)
		if err != nil {
			return nil, fmt.Errorf("serving: stream mode: %w", err)
		}
		st, err := graphner.NewStreamer(sys, art.FrozenCorpus())
		if err != nil {
			return nil, fmt.Errorf("serving: stream mode: %w", err)
		}
		s.streamer = st
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
	return s, nil
}

// Tagger exposes the underlying tagger (tests and benchmarks).
func (s *Server) Tagger() *Tagger { return s.tagger }

// TagInto submits one sentence and blocks until a worker answers,
// writing the BIO tags into tags and returning the token count. A zero
// deadline applies the configured default. Shed outcomes return
// ErrOverloaded (queue full at submit) or ErrDeadlineExceeded (deadline
// passed before a worker reached the request). A too-small tags buffer
// returns the required count with ErrShortBuffer.
func (s *Server) TagInto(text string, deadline time.Time, tags []corpus.Tag) (int, error) {
	if deadline.IsZero() && s.cfg.Deadline > 0 {
		deadline = time.Now().Add(s.cfg.Deadline)
	}
	req := s.reqPool.Get().(*request)
	req.text, req.deadline, req.tags = text, deadline, tags
	// Single release point for every path: the shed branches return before
	// a worker ever sees req, and the success path has already drained
	// req.done, so the pool never receives a request with a pending result.
	defer s.release(req)

	s.submitMu.RLock()
	if s.closed {
		s.submitMu.RUnlock()
		return 0, ErrClosed
	}
	select {
	case s.queue <- req:
		s.submitMu.RUnlock()
	default:
		s.submitMu.RUnlock()
		s.overloaded.Add(1)
		return 0, ErrOverloaded
	}

	res := <-req.done
	return res.n, res.err
}

// Tag is the allocating convenience wrapper around TagInto, with the
// configured default deadline.
func (s *Server) Tag(text string) ([]corpus.Tag, error) {
	return s.tagWithDeadline(text, time.Time{})
}

// release scrubs and pools a request whose done channel is known empty.
func (s *Server) release(req *request) {
	req.text, req.tags, req.deadline = "", nil, time.Time{}
	s.reqPool.Put(req)
}

// worker answers queued requests one at a time, each with exactly one
// result: shed if its deadline passed while queued, otherwise tagged
// from this worker's Scratch. It returns once Close has closed the queue
// and the queue is empty. The spawn site holds the s.wg.Done obligation.
func (s *Server) worker() {
	sc := s.tagger.NewScratch()
	for req := range s.queue {
		if !req.deadline.IsZero() && time.Now().After(req.deadline) {
			s.shed.Add(1)
			req.done <- result{err: ErrDeadlineExceeded}
			continue
		}
		n, err := s.tagger.TagInto(sc, req.text, req.tags)
		if err == nil {
			s.served.Add(1)
			if s.cfg.Stream != nil {
				s.observe(req.text)
			}
		}
		req.done <- result{n: n, err: err}
	}
}

// observe buffers a served sentence for the next background fold-in,
// dropping (never blocking) when the buffer is at its bound, and kicks
// off a fold-in when the batch threshold is reached.
func (s *Server) observe(text string) {
	st := s.cfg.Stream
	s.streamMu.Lock()
	if len(s.streamBuf) < st.MaxBuffered {
		s.streamBuf = append(s.streamBuf, text)
	}
	ready := len(s.streamBuf) >= st.BatchSize
	s.streamMu.Unlock()
	if ready && s.folding.CompareAndSwap(false, true) {
		s.foldWG.Add(1)
		go s.fold()
	}
}

// fold drains the stream buffer and folds it into the graph under the
// tagger's exclusive lock: incremental graph maintenance plus fixed-sweep
// propagation (graphner.Streamer), then a generation bump so workers
// re-resolve cached vertex ids.
func (s *Server) fold() {
	defer s.foldWG.Done()
	defer s.folding.Store(false)
	s.streamMu.Lock()
	texts := s.streamBuf
	s.streamBuf = nil
	s.streamMu.Unlock()
	if len(texts) == 0 {
		return
	}
	batch := corpus.New()
	for i, text := range texts {
		batch.Sentences = append(batch.Sentences, &corpus.Sentence{
			ID:     fmt.Sprintf("stream-%d-%d", s.folds.Load(), i),
			Text:   text,
			Tokens: tokenize.Sentence(text),
		})
	}
	err := s.tagger.Swap(func() (*graph.Graph, []float64, error) {
		if _, err := s.streamer.AddUnlabelled(batch); err != nil {
			return nil, nil, err
		}
		return s.streamer.Graph(), s.streamer.VertexBeliefs(), nil
	})
	if err == nil {
		s.folds.Add(1)
	}
}

// Stats is a snapshot of the serving counters.
type Stats struct {
	// Served counts successfully answered requests; Shed counts
	// deadline-expired ones; Overloaded counts submissions rejected at
	// a full queue; Folds counts completed streaming fold-ins.
	Served, Shed, Overloaded int64
	// Batches is Served + Shed: each worker answers one request at a
	// time, so every served or shed request is its own batch.
	//
	// Deprecated: kept for readers of the old batch counter; use Served
	// and Shed.
	Batches int64
	Folds   int64
}

// Stats returns the current counters.
func (s *Server) Stats() Stats {
	served, shed := s.served.Load(), s.shed.Load()
	return Stats{
		Served:     served,
		Shed:       shed,
		Overloaded: s.overloaded.Load(),
		Batches:    served + shed,
		Folds:      s.folds.Load(),
	}
}

// Config returns the server's configuration with every default resolved.
func (s *Server) Config() Config { return s.cfg }

// Close shuts the server down: new submissions fail with ErrClosed, the
// workers answer every request still queued and exit, and then in-flight
// fold-ins finish. Close is idempotent.
func (s *Server) Close() {
	s.submitMu.Lock()
	if s.closed {
		s.submitMu.Unlock()
		return
	}
	s.closed = true
	s.submitMu.Unlock()
	close(s.done)
	close(s.queue)
	s.wg.Wait()
	s.foldWG.Wait()
}
