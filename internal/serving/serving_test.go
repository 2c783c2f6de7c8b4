package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
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

func testArtifact(t testing.TB) (*graphner.Artifact, *corpus.Corpus, [][]corpus.Tag) {
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
// sentence served through the server gets exactly the labels
// System.Test produced before freezing.
func TestServingGolden(t *testing.T) {
	art, test, want := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2})
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
// checks every response against the golden labels — exercising the
// shared queue and the workers' private scratches under real contention.
func TestServingConcurrent(t *testing.T) {
	art, test, want := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 4})
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
	if st := s.Stats(); st.Served != int64(len(test.Sentences)) {
		t.Errorf("Served = %d, want %d", st.Served, len(test.Sentences))
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

// TestServingOverload fills the bounded queue of a server whose one
// worker has not started yet (a same-package construction) and checks
// fast-fail shedding. It then closes the server with the request still
// queued: submissions fail with ErrClosed at once, and Close waits for
// the worker to answer the queued request before it returns.
func TestServingOverload(t *testing.T) {
	art, test, want := testArtifact(t)
	tagger, err := NewTagger(art, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		cfg:    Config{Workers: 1, QueueDepth: 1},
		tagger: tagger,
		queue:  make(chan *request, 1),
		done:   make(chan struct{}),
	}
	s.reqPool.New = func() any { return &request{done: make(chan result, 1)} }

	text := test.Sentences[0].Text
	tags := make([]corpus.Tag, 64)
	queued := make(chan error, 1)
	go func() {
		_, err := s.TagInto(text, time.Time{}, tags)
		queued <- err
	}()
	for len(s.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	extra := make([]corpus.Tag, 64)
	if _, err := s.TagInto(text, time.Time{}, extra); err != ErrOverloaded {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Overloaded != 1 {
		t.Errorf("Overloaded = %d, want 1", st.Overloaded)
	}

	s.wg.Add(1) // the worker started below
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for {
		_, err := s.TagInto(text, time.Time{}, extra)
		if err == ErrClosed {
			break
		}
		if err != ErrOverloaded {
			t.Fatalf("submit while closing: err = %v, want ErrOverloaded or ErrClosed", err)
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		defer s.wg.Done()
		s.worker()
	}()
	<-closed
	if st := s.Stats(); st.Served != 1 {
		t.Errorf("Close returned with Served = %d; want the queued request answered first", st.Served)
	}
	if err := <-queued; err != nil {
		t.Fatalf("request queued at close: %v", err)
	}
	if !reflect.DeepEqual(tags[:len(want[0])], want[0]) {
		t.Errorf("request queued at close: served %v, want %v", tags[:len(want[0])], want[0])
	}
}

// TestServingDefaultQueueDepth pins the default admission bound at 160
// queued requests per worker, with Workers set and with it defaulted.
func TestServingDefaultQueueDepth(t *testing.T) {
	art, _, _ := testArtifact(t)
	for _, workers := range []int{0, 1, 3} {
		s, err := NewServer(art, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg, depth := s.Config(), cap(s.queue)
		s.Close()
		want := workers
		if want == 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if cfg.Workers != want || cfg.QueueDepth != 160*want || depth != 160*want {
			t.Errorf("Workers %d: resolved %d workers, queue depth %d (channel %d); want %d and %d",
				workers, cfg.Workers, cfg.QueueDepth, depth, want, 160*want)
		}
	}
}

// TestServingChaos drives 16 clients with random deadlines — none,
// already past, or a few milliseconds — into a small queue, and closes
// the server while requests are in flight. Every call must return, with
// the golden tags or with ErrOverloaded, ErrDeadlineExceeded or
// ErrClosed, and the server's counters must account for every call. In
// stream mode, fold-ins running alongside may change the tags, so only
// their count is checked there.
func TestServingChaos(t *testing.T) {
	art, test, want := testArtifact(t)
	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
			cfg := Config{Workers: 2, QueueDepth: 8}
			if stream {
				cfg.Stream = &StreamConfig{BatchSize: 16}
			}
			s, err := NewServer(art, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const clients = 16
			var calls, closedErrs atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					tags := make([]corpus.Tag, 256)
					for i := 0; ; i++ {
						k := (c + i*clients) % len(test.Sentences)
						var deadline time.Time
						switch rng.Intn(3) {
						case 1:
							deadline = time.Now().Add(-time.Millisecond)
						case 2:
							deadline = time.Now().Add(time.Duration(1+rng.Intn(3)) * time.Millisecond)
						}
						calls.Add(1)
						n, err := s.TagInto(test.Sentences[k].Text, deadline, tags)
						switch {
						case err == ErrClosed:
							closedErrs.Add(1)
							return
						case err == ErrOverloaded:
							// Back off as a client would, instead of
							// spinning on the full queue.
							time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						case err == ErrDeadlineExceeded:
						case err != nil:
							errs <- fmt.Errorf("sentence %d: %w", k, err)
							return
						case stream && n != len(want[k]):
							errs <- fmt.Errorf("sentence %d: %d tags, want %d", k, n, len(want[k]))
							return
						case !stream && !reflect.DeepEqual(tags[:n], want[k]):
							errs <- fmt.Errorf("sentence %d: served %v, want %v", k, tags[:n], want[k])
							return
						}
					}
				}(c)
			}
			finished := make(chan struct{})
			go func() {
				wg.Wait()
				close(finished)
			}()
			// Close mid-flight: once 200 requests were served, or a
			// minute passed, or every client stopped on an error.
			giveUp := time.After(time.Minute)
		wait:
			for s.Stats().Served < 200 {
				select {
				case <-finished:
					break wait
				case <-giveUp:
					break wait
				case <-time.After(time.Millisecond):
				}
			}
			closeDone := make(chan struct{})
			go func() {
				s.Close()
				close(closeDone)
			}()
			timeout := time.After(time.Minute)
			for _, ch := range []chan struct{}{closeDone, finished} {
				select {
				case <-ch:
				case <-timeout:
					t.Fatal("Close or a call still pending a minute after Close began")
				}
			}
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			st := s.Stats()
			if got := st.Served + st.Shed + st.Overloaded + closedErrs.Load(); got != calls.Load() {
				t.Errorf("served %d + shed %d + overloaded %d + closed %d = %d, want %d calls",
					st.Served, st.Shed, st.Overloaded, closedErrs.Load(), got, calls.Load())
			}
			t.Logf("%d calls: served %d, shed %d, overloaded %d, closed %d, folds %d",
				calls.Load(), st.Served, st.Shed, st.Overloaded, closedErrs.Load(), st.Folds)
		})
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
// server — submit, queue, posteriors, combine, decode, respond —
// allocates nothing.
func TestServingAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	art, test, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 1})
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
	s, err := NewServer(art, Config{})
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

// TestTagBodyTooLarge: a /tag body one byte over the 8 MiB cap gets 413,
// not a 400 from a decoder that saw the body cut short.
func TestTagBodyTooLarge(t *testing.T) {
	art, _, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const head, tail = `{"sentences":["`, `"]}`
	body := head + strings.Repeat("a", maxTagBody+1-len(head)-len(tail)) + tail
	if len(body) != maxTagBody+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), maxTagBody+1)
	}
	resp, err := srv.Client().Post(srv.URL+"/tag", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // lint:checked errdrop: test teardown of the response read side
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /tag with a %d-byte body: status %d, want 413", len(body), resp.StatusCode)
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

// postTag posts body to the handler and returns the status and the
// decoded response (zero unless the status is 200).
func postTag(t *testing.T, h http.Handler, body string) (int, TagResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tag", strings.NewReader(body)))
	var resp TagResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("response to %q does not decode: %v", body, err)
		}
	}
	return rec.Code, resp
}

// TestTagDeadlineOverflow: a deadline_ms whose time.Duration would
// overflow is cut to maxDeadlineMS, so the sentence is tagged, not shed.
func TestTagDeadlineOverflow(t *testing.T) {
	art, _, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ms := range []string{"10000000000000", "9223372036854775807", fmt.Sprint(maxDeadlineMS)} {
		code, resp := postTag(t, s.Handler(), `{"sentences":["x y ."],"deadline_ms":`+ms+`}`)
		if code != http.StatusOK || resp.Errors != nil || len(resp.Tags) != 1 || len(resp.Tags[0]) != 3 {
			t.Errorf("deadline_ms %s: status %d, response %+v; want 200 with 3 tags", ms, code, resp)
		}
	}
}

// TestTagTrailingData: /tag takes exactly one JSON object; anything but
// white space after it is a 400.
func TestTagTrailingData(t *testing.T) {
	art, _, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for body, want := range map[string]int{
		`{"sentences":["x y ."]} trailing garbage`: http.StatusBadRequest,
		`{"sentences":["x y ."]} {}`:               http.StatusBadRequest,
		`{"sentences":["x y ."]}]`:                 http.StatusBadRequest,
		"{\"sentences\":[\"x y .\"]} \r\n\t":       http.StatusOK,
	} {
		if code, _ := postTag(t, s.Handler(), body); code != want {
			t.Errorf("body %q: status %d, want %d", body, code, want)
		}
	}
}

// TestLineProtocolLongLine: a request line over the 1 MiB limit gets one
// ERR reply, and the connection goes on to answer the next line.
func TestLineProtocolLongLine(t *testing.T) {
	art, _, _ := testArtifact(t)
	s, err := NewServer(art, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, server := net.Pipe()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s.serveConn(server, s.done)
	}()
	written := make(chan error, 1)
	go func() {
		_, err := io.WriteString(client, strings.Repeat("a", maxLine+10)+"\nx y .\n")
		written <- err
	}()
	rd := bufio.NewReader(client)
	first, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to the long line: %v", err)
	}
	if want := "ERR " + errLineTooLong.Error() + "\n"; first != want {
		t.Fatalf("reply to the long line %q, want %q", first, want)
	}
	second, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to the line after the long one: %v", err)
	}
	if got := strings.Fields(second); len(got) != 3 {
		t.Fatalf("reply %q to \"x y .\", want 3 tags", second)
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	client.Close() // lint:checked errdrop: closing the in-memory pipe only to end the server's read loop
	<-exited
}

// TestLineSplitter pins the line protocol's length limit: a line of
// maxLine bytes, terminator included, is a request; one byte more is too
// long, whether it ends in a terminator or in the end of the stream, and
// whether the stream's last bytes arrive with its end or before it.
func TestLineSplitter(t *testing.T) {
	type tok struct {
		text    string
		tooLong bool
	}
	long := strings.Repeat("b", maxLine)
	for _, tc := range []struct {
		in   string
		want []tok
	}{
		{long[1:] + "\nc\n", []tok{{long[1:], false}, {"c", false}}},
		{long + "\nc\r\n", []tok{{"", true}, {"c", false}}},
		{"c\n" + long + "dd", []tok{{"c", false}, {"", true}}},
		{long + long + "\n\n", []tok{{"", true}, {"", false}}},
	} {
		for _, r := range []io.Reader{strings.NewReader(tc.in), iotest.DataErrReader(strings.NewReader(tc.in))} {
			var lines lineSplitter
			sc := bufio.NewScanner(r)
			sc.Buffer(make([]byte, 0, 64<<10), maxLine)
			sc.Split(lines.split)
			var got []tok
			for sc.Scan() {
				got = append(got, tok{sc.Text(), lines.tooLong})
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("input of %d bytes from a %T: %d tokens, want %d", len(tc.in), r, len(got), len(tc.want))
				for i := range got {
					t.Logf("token %d: %d bytes, too long %v", i, len(got[i].text), got[i].tooLong)
				}
			}
		}
	}
}
