package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/graphner"
	"repro/internal/race"
)

// testArtifact trains a small system, freezes it over its test split, and
// round-trips the artifact through its binary form — so every serving
// test runs against bytes a production server would load. Cached: the
// training run dominates the package's test time.
var artifactOnce struct {
	sync.Once
	art  *graphner.Artifact
	test *corpus.Corpus
	tags [][]corpus.Tag
	err  error
}

func testArtifact(t *testing.T) (*graphner.Artifact, *corpus.Corpus, [][]corpus.Tag) {
	t.Helper()
	artifactOnce.Do(func() {
		fail := func(err error) { artifactOnce.err = err }
		cfg := synth.DefaultConfig(synth.AML, 37)
		cfg.Sentences = 160
		train, test := synth.GenerateSplit(cfg)
		gcfg := graphner.Default()
		gcfg.Order = crf.Order1
		gcfg.CRFIterations = 20
		sys, err := graphner.Train(train, gcfg)
		if err != nil {
			fail(err)
			return
		}
		out, err := sys.Test(test)
		if err != nil {
			fail(err)
			return
		}
		art, err := sys.Freeze(test, out)
		if err != nil {
			fail(err)
			return
		}
		var buf bytes.Buffer
		if _, err := art.WriteTo(&buf); err != nil {
			fail(err)
			return
		}
		loaded, err := graphner.ReadArtifact(bytes.NewReader(buf.Bytes()))
		if err != nil {
			fail(err)
			return
		}
		artifactOnce.art, artifactOnce.test, artifactOnce.tags = loaded, test, out.Tags
	})
	if artifactOnce.err != nil {
		t.Fatal(artifactOnce.err)
	}
	return artifactOnce.art, artifactOnce.test, artifactOnce.tags
}

// TestServingGolden is the end-to-end identity check: every frozen
// sentence served through the batching server gets exactly the labels
// System.Test produced before freezing.
func TestServingGolden(t *testing.T) {
	art, test, want := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2, BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, sent := range test.Sentences {
		got, err := s.Tag(sent.Text)
		if err != nil {
			t.Fatalf("sentence %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sentence %d (%q): served %v, System.Test produced %v",
				i, sent.Text, got, want[i])
		}
	}
	if st := s.Stats(); st.Served != int64(len(test.Sentences)) {
		t.Errorf("Served = %d, want %d", st.Served, len(test.Sentences))
	}
}

// TestServingConcurrent hammers the server from many goroutines and
// checks every response against the golden labels — exercising batch
// coalescing under real contention.
func TestServingConcurrent(t *testing.T) {
	art, test, want := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 4, BatchMax: 8, BatchWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(test.Sentences); i += clients {
				got, err := s.Tag(test.Sentences[i].Text)
				if err != nil {
					errs <- fmt.Errorf("sentence %d: %w", i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("sentence %d served wrong labels", i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.Batches <= 0 {
		t.Error("no batches recorded")
	}
}

func TestServingShortBuffer(t *testing.T) {
	art, test, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	text := test.Sentences[0].Text
	n, err := s.TagInto(text, time.Time{}, nil)
	if err != ErrShortBuffer {
		t.Fatalf("nil buffer: err = %v, want ErrShortBuffer", err)
	}
	if n <= 0 {
		t.Fatalf("required count = %d, want positive", n)
	}
	tags := make([]corpus.Tag, n)
	if _, err := s.TagInto(text, time.Time{}, tags); err != nil {
		t.Fatal(err)
	}
}

// TestServingDeadline: a request whose deadline already passed is shed
// with ErrDeadlineExceeded, and the shed counter moves.
func TestServingDeadline(t *testing.T) {
	art, test, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	past := time.Now().Add(-time.Second)
	tags := make([]corpus.Tag, 64)
	if _, err := s.TagInto(test.Sentences[0].Text, past, tags); err != ErrDeadlineExceeded {
		t.Fatalf("expired deadline: err = %v, want ErrDeadlineExceeded", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	// A sane deadline still succeeds.
	if _, err := s.TagInto(test.Sentences[0].Text, time.Now().Add(5*time.Second), tags); err != nil {
		t.Fatal(err)
	}
}

// TestServingOverload fills the bounded queue of a worker-less server (a
// same-package construction) and checks fast-fail shedding.
func TestServingOverload(t *testing.T) {
	art, test, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stop the workers but keep the queue: requests enqueued now are
	// only drained by Close.
	close(s.done)
	s.wg.Wait()

	tags := make([]corpus.Tag, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	queued := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := s.TagInto(test.Sentences[0].Text, time.Time{}, tags)
		queued <- err
	}()
	// Wait until the queue holds the first request, then overflow it.
	for len(s.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.TagInto(test.Sentences[0].Text, time.Time{}, make([]corpus.Tag, 64)); err != ErrOverloaded {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Overloaded != 1 {
		t.Errorf("Overloaded = %d, want 1", st.Overloaded)
	}

	// Close answers the still-queued request with ErrClosed.
	s.closeQueueOnly()
	if err := <-queued; err != ErrClosed {
		t.Errorf("queued request at close: err = %v, want ErrClosed", err)
	}
	wg.Wait()
	if _, err := s.TagInto(test.Sentences[0].Text, time.Time{}, tags); err != ErrClosed {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

// closeQueueOnly is Close for a server whose done channel is already
// closed (test-only).
func (s *Server) closeQueueOnly() {
	s.submitMu.Lock()
	s.closed = true
	s.submitMu.Unlock()
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

// TestServingStream enables the fold-in path: after enough distinct
// sentences are served, a background fold runs, the graph generation
// advances, and the server keeps answering.
func TestServingStream(t *testing.T) {
	art, test, _ := testArtifact(t)
	s, err := NewServer(art, Config{
		Workers: 2,
		Stream:  &StreamConfig{BatchSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen0 := s.Tagger().Generation()
	for i := 0; i < 12; i++ {
		if _, err := s.Tag(test.Sentences[i%len(test.Sentences)].Text); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Folds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fold-in completed within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gen := s.Tagger().Generation(); gen <= gen0 {
		t.Errorf("generation = %d after fold, want > %d", gen, gen0)
	}
	// Serving continues against the folded state.
	for i := 0; i < len(test.Sentences); i++ {
		if _, err := s.Tag(test.Sentences[i].Text); err != nil {
			t.Fatalf("post-fold sentence %d: %v", i, err)
		}
	}
}

// TestServingStreamStartsFrozen pins why a stream-mode server may answer
// from the frozen artifact until its first fold: the streamer's initial
// state is the artifact's — the same graph and bit-identical beliefs — so
// the served tags are System.Test's.
func TestServingStreamStartsFrozen(t *testing.T) {
	art, test, want := testArtifact(t)
	s, err := NewServer(art, Config{
		Workers: 2,
		Stream:  &StreamConfig{BatchSize: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.streamer.Graph().Equal(art.Graph()) {
		t.Fatal("streamer's initial graph differs from the artifact's")
	}
	got, frozen := s.streamer.VertexBeliefs(), art.Beliefs()
	if len(got) != len(frozen) {
		t.Fatalf("streamer holds %d belief entries, artifact %d", len(got), len(frozen))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(frozen[i]) {
			t.Fatalf("belief entry %d: streamer %v, artifact %v", i, got[i], frozen[i])
		}
	}
	if !reflect.DeepEqual(s.streamer.Tags(), want) {
		t.Fatal("streamer's initial tags differ from System.Test's")
	}
	for i, sent := range test.Sentences {
		tags, err := s.Tag(sent.Text)
		if err != nil {
			t.Fatalf("sentence %d: %v", i, err)
		}
		if !reflect.DeepEqual(tags, want[i]) {
			t.Fatalf("sentence %d (%q): served %v before any fold, System.Test produced %v",
				i, sent.Text, tags, want[i])
		}
	}
	if st := s.Stats(); st.Folds != 0 {
		t.Fatalf("%d folds ran, want none", st.Folds)
	}
}

// TestServingAllocGuard locks in the zero-allocation warm path: with the
// sentence compiled and the pools warm, a full request through the
// server — submit, coalesce, posteriors, combine, decode, respond —
// allocates nothing.
func TestServingAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	art, test, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 1, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = test.Sentences[i].Text
	}
	tags := make([]corpus.Tag, 256)
	for _, text := range texts {
		if _, err := s.TagInto(text, time.Time{}, tags); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := s.TagInto(texts[i%len(texts)], time.Time{}, tags); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Fatalf("warm request allocates %.2f objects, want 0", allocs)
	}
}

// TestServingSmoke is the CI latency gate: in-process requests through
// the real server must keep p99 under a deliberately loose bound.
func TestServingSmoke(t *testing.T) {
	art, test, _ := testArtifact(t)
	s, err := NewServer(art, Config{BatchMax: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const clients = 4
	const perClient = 50
	durs := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tags := make([]corpus.Tag, 256)
			for i := 0; i < perClient; i++ {
				text := test.Sentences[(c*perClient+i)%len(test.Sentences)].Text
				start := time.Now()
				if _, err := s.TagInto(text, time.Time{}, tags); err != nil {
					t.Error(err)
					return
				}
				durs[c] = append(durs[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for _, d := range durs {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	// Loose: a warm request is microseconds; this catches order-of-
	// magnitude regressions without flaking on loaded CI machines.
	if p99 > 250*time.Millisecond {
		t.Fatalf("p99 = %v, want < 250ms", p99)
	}
}

func TestHTTPHandler(t *testing.T) {
	art, test, want := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, err := json.Marshal(TagRequest{Sentences: []string{
		test.Sentences[0].Text, test.Sentences[1].Text,
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/tag", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // lint:checked errdrop: test teardown of the response read side
	if resp.StatusCode != 200 {
		t.Fatalf("POST /tag: status %d", resp.StatusCode)
	}
	var tr TagResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Tags) != 2 || tr.Errors != nil {
		t.Fatalf("response: %+v", tr)
	}
	for i := 0; i < 2; i++ {
		wantStr := make([]string, len(want[i]))
		for j, tag := range want[i] {
			wantStr[j] = tag.String()
		}
		if !reflect.DeepEqual(tr.Tags[i], wantStr) {
			t.Errorf("sentence %d: HTTP tags %v, want %v", i, tr.Tags[i], wantStr)
		}
	}

	health, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close() // lint:checked errdrop: test teardown of the response read side
	if health.StatusCode != 200 {
		t.Errorf("GET /healthz: status %d", health.StatusCode)
	}
	status, err := srv.Client().Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(status.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	status.Body.Close() // lint:checked errdrop: test teardown of the response read side
	if st.Served < 2 {
		t.Errorf("statusz Served = %d, want ≥ 2", st.Served)
	}
}

func TestLineProtocol(t *testing.T) {
	art, test, want := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, server := net.Pipe()
	go s.serveConn(server, s.done)
	defer client.Close() // lint:checked errdrop: test teardown of the in-memory pipe

	rd := bufio.NewReader(client)
	for i := 0; i < 3; i++ {
		if _, err := fmt.Fprintln(client, test.Sentences[i].Text); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		wantStr := make([]string, len(want[i]))
		for j, tag := range want[i] {
			wantStr[j] = tag.String()
		}
		got := strings.Fields(line)
		if !reflect.DeepEqual(got, wantStr) {
			t.Errorf("sentence %d: line tags %v, want %v", i, got, wantStr)
		}
	}
}
