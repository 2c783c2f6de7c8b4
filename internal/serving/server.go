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
	// Workers is the number of batch workers (default GOMAXPROCS). Each
	// owns a Scratch — a compiled-sentence cache plus flat buffers — so
	// memory scales linearly with it.
	Workers int
	// BatchMax caps how many queued requests one worker coalesces into a
	// shared batch (default 32).
	BatchMax int
	// BatchWait is how long a worker holding a non-full batch lingers
	// for more requests before running it. Zero (the default) runs
	// whatever a non-blocking queue drain yields — lowest latency; a few
	// hundred microseconds trades latency for fuller batches.
	BatchWait time.Duration
	// QueueDepth bounds the shared request queue; submissions beyond it
	// fail fast with ErrOverloaded (default 4×Workers×BatchMax).
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

// Server coalesces concurrent tagging requests into shared per-worker
// batches over one frozen Artifact. Submissions enqueue onto a bounded
// queue; each worker drains a batch, sheds requests whose deadline
// already passed, and answers the rest from its private Scratch. A warm
// request — sentence cached, queue uncontended — completes without heap
// allocations.
type Server struct {
	cfg    Config
	tagger *Tagger
	queue  chan *request
	done   chan struct{}
	wg     sync.WaitGroup

	// submitMu makes shutdown airtight: submitters hold it shared
	// around the closed-check + enqueue, Close holds it exclusively
	// while flipping closed, so no request can enter the queue after
	// the final drain.
	submitMu sync.RWMutex
	closed   bool

	reqPool sync.Pool

	served     atomic.Int64
	shed       atomic.Int64
	overloaded atomic.Int64
	batches    atomic.Int64
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
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 32
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers * cfg.BatchMax
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

// Tag is the allocating convenience wrapper around TagInto.
func (s *Server) Tag(text string) ([]corpus.Tag, error) {
	tags := make([]corpus.Tag, 64)
	for {
		n, err := s.TagInto(text, time.Time{}, tags)
		if err == ErrShortBuffer {
			tags = make([]corpus.Tag, n)
			continue
		}
		if err != nil {
			return nil, err
		}
		return tags[:n], nil
	}
}

// release scrubs and pools a request whose done channel is known empty.
func (s *Server) release(req *request) {
	req.text, req.tags, req.deadline = "", nil, time.Time{}
	s.reqPool.Put(req)
}

// worker drains coalesced batches until shutdown. The spawn site holds
// the s.wg.Done obligation.
func (s *Server) worker() {
	sc := s.tagger.NewScratch()
	batch := make([]*request, 0, s.cfg.BatchMax)
	var linger *time.Timer
	if s.cfg.BatchWait > 0 {
		linger = time.NewTimer(s.cfg.BatchWait)
		if !linger.Stop() {
			<-linger.C
		}
	}
	for {
		select {
		case <-s.done:
			return
		case req := <-s.queue:
			batch = append(batch[:0], req)
			s.fill(&batch, linger)
			s.runBatch(sc, batch)
		}
	}
}

// fill coalesces queued requests into batch up to BatchMax: first a
// non-blocking drain, then (when configured) one bounded linger for
// stragglers so lightly loaded servers still form batches.
func (s *Server) fill(batch *[]*request, linger *time.Timer) {
drain:
	for len(*batch) < s.cfg.BatchMax {
		select {
		case req := <-s.queue:
			*batch = append(*batch, req)
		default:
			break drain
		}
	}
	if linger == nil || len(*batch) >= s.cfg.BatchMax {
		return
	}
	linger.Reset(s.cfg.BatchWait)
	for len(*batch) < s.cfg.BatchMax {
		select {
		case req := <-s.queue:
			*batch = append(*batch, req)
		case <-linger.C:
			return
		case <-s.done:
			if !linger.Stop() {
				<-linger.C
			}
			return
		}
	}
	if !linger.Stop() {
		<-linger.C
	}
}

// runBatch answers every request in the batch: deadline-shed the stale
// ones, tag the rest from this worker's Scratch. Every request receives
// exactly one result.
func (s *Server) runBatch(sc *Scratch, batch []*request) {
	for _, req := range batch {
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
	s.batches.Add(1)
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
	// a full queue; Batches counts coalesced worker batches; Folds
	// counts completed streaming fold-ins.
	Served, Shed, Overloaded, Batches, Folds int64
}

// Stats returns the current counters.
func (s *Server) Stats() Stats {
	return Stats{
		Served:     s.served.Load(),
		Shed:       s.shed.Load(),
		Overloaded: s.overloaded.Load(),
		Batches:    s.batches.Load(),
		Folds:      s.folds.Load(),
	}
}

// Close shuts the server down: new submissions fail with ErrClosed,
// workers exit, in-flight fold-ins finish, and every request still queued
// is answered with ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.submitMu.Lock()
	if s.closed {
		s.submitMu.Unlock()
		return
	}
	s.closed = true
	s.submitMu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.foldWG.Wait()
	for {
		select {
		case req := <-s.queue:
			req.done <- result{err: ErrClosed}
		default:
			return
		}
	}
}
