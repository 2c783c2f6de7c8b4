package graph

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
)

// unionOf concatenates corpora without copying sentences.
func unionOf(parts ...*corpus.Corpus) *corpus.Corpus {
	u := corpus.New()
	for _, p := range parts {
		u.Sentences = append(u.Sentences, p.Sentences...)
	}
	return u
}

// assertCanonicalEqual fails the test unless the two graphs are exactly
// equal up to canonical vertex renumbering: same vertex set, same
// neighbour lists with bit-equal weights, same CSR arrays.
func assertCanonicalEqual(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	cg, cw := got.CanonicalClone(), want.CanonicalClone()
	if cg.Equal(cw) {
		return
	}
	if len(cg.Vertices) != len(cw.Vertices) {
		t.Fatalf("%s: %d vertices, want %d", tag, len(cg.Vertices), len(cw.Vertices))
	}
	for v := range cg.Vertices {
		if cg.Vertices[v] != cw.Vertices[v] {
			t.Fatalf("%s: vertex %d is %q, want %q", tag, v, cg.Vertices[v], cw.Vertices[v])
		}
		a, b := cg.Neighbors[v], cw.Neighbors[v]
		if len(a) != len(b) {
			t.Fatalf("%s: vertex %d (%q) has %d neighbours, want %d\n got %v\nwant %v",
				tag, v, cg.Vertices[v], len(a), len(b), a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: vertex %d (%q) neighbour %d is {%d, %v}, want {%d, %v}",
					tag, v, cg.Vertices[v], j, a[j].To, a[j].Weight, b[j].To, b[j].Weight)
			}
		}
	}
	t.Fatalf("%s: graphs differ (CSR mirror)", tag)
}

// streamEquals runs the core equivalence property: feeding batches through
// an Updater seeded on base must reproduce Build on the growing union
// corpus under the Updater's frozen statistics, exactly, after every batch.
// It returns the rows the batches re-searched from the postings and the
// rows they repaired in place, summed over the batches, so a caller can
// require that a path was exercised.
func streamEquals(t *testing.T, tag string, base *corpus.Corpus, batches [][]*corpus.Sentence, cfg BuilderConfig) (rescanned, repaired int) {
	t.Helper()
	u, err := NewUpdater(base, cfg)
	if err != nil {
		t.Fatalf("%s: NewUpdater: %v", tag, err)
	}
	full := cfg
	full.Stats = u.Stats()
	full.Tags = nil
	union := unionOf(base)
	for bi, batch := range batches {
		res, err := u.AddSentences(batch)
		if err != nil {
			t.Fatalf("%s: batch %d: %v", tag, bi, err)
		}
		rescanned += res.RescannedRows
		repaired += res.RepairedRows
		union.Sentences = append(union.Sentences, batch...)
		want, err := Build(union, full)
		if err != nil {
			t.Fatalf("%s: Build union after batch %d: %v", tag, bi, err)
		}
		assertCanonicalEqual(t, fmt.Sprintf("%s/batch=%d", tag, bi), u.Graph(), want)
	}
	return rescanned, repaired
}

// requireBothPaths fails unless a stream both re-searched rows from the
// postings and repaired rows in place. The plain K/mode sweep of
// TestUpdaterMatchesBuild repairs every dirty row, so the rescan fallback
// is only reached, and only checked against Build, under a
// document-frequency cap or MI feature selection.
func requireBothPaths(t *testing.T, tag string, rescanned, repaired int) {
	t.Helper()
	if rescanned == 0 || repaired == 0 {
		t.Fatalf("%s: %d rescanned and %d repaired rows; both paths must be exercised", tag, rescanned, repaired)
	}
}

// synthBatches generates a base corpus of nBase sentences plus batches of
// fresh sentences from an independently seeded generator.
func synthBatches(seed int64, nBase int, batchSizes []int) (*corpus.Corpus, [][]*corpus.Sentence) {
	cfg := synth.DefaultConfig(synth.BC2GM, seed)
	total := nBase
	for _, b := range batchSizes {
		total += b
	}
	cfg.Sentences = total
	c := synth.NewGenerator(cfg).Generate()
	base := corpus.New()
	base.Sentences = c.Sentences[:nBase]
	var batches [][]*corpus.Sentence
	at := nBase
	for _, b := range batchSizes {
		batches = append(batches, c.Sentences[at:at+b])
		at += b
	}
	return base, batches
}

// TestIncrementalSmoke is the tiny equivalence check bench-smoke runs: a
// hand-sized corpus, two batches, exact equality after each.
func TestIncrementalSmoke(t *testing.T) {
	base := figure1Corpus()
	b1 := makeCorpus([]string{
		"wilms tumor - 1 expression was measured in positive patients .",
		"the wt1 gene was not expressed in this subclone .",
	}).Sentences
	b2 := makeCorpus([]string{
		"drug response was observed in tumor - 2 positive patients .",
	}).Sentences
	streamEquals(t, "smoke", base, [][]*corpus.Sentence{b1, b2}, BuilderConfig{K: 3, Workers: 2})
}

// TestUpdaterMatchesBuild sweeps K and both feature modes over synthetic
// corpora, streaming several batches (including a single-sentence batch).
func TestUpdaterMatchesBuild(t *testing.T) {
	for _, mode := range []FeatureMode{AllFeatures, LexicalFeatures} {
		for _, k := range []int{2, 5, 10} {
			base, batches := synthBatches(int64(100+k), 60, []int{1, 10, 25})
			tag := fmt.Sprintf("mode=%v/K=%d", mode, k)
			streamEquals(t, tag, base, batches, BuilderConfig{K: k, Mode: mode, Workers: 3})
		}
	}
}

// TestUpdaterMatchesBuildMIMode covers the MIFeatures path: the Updater
// snapshots the MI-selected feature set from the base corpus's tags, and
// streamed batches need no tags at all.
func TestUpdaterMatchesBuildMIMode(t *testing.T) {
	base, batches := synthBatches(7, 50, []int{8, 16})
	tags := make([][]corpus.Tag, len(base.Sentences))
	for i, s := range base.Sentences {
		tags[i] = s.Tags
	}
	cfg := BuilderConfig{K: 5, Mode: MIFeatures, MIThreshold: 0.0005, Tags: tags, Workers: 2}
	rescanned, repaired := streamEquals(t, "mi", base, batches, cfg)
	requireBothPaths(t, "mi", rescanned, repaired)
}

// TestUpdaterMatchesBuildMaxDF exercises the document-frequency cap,
// including features crossing the cap mid-stream (tiny MaxDF forces it).
func TestUpdaterMatchesBuildMaxDF(t *testing.T) {
	for _, maxDF := range []int{5, 25, 200} {
		base, batches := synthBatches(int64(maxDF), 60, []int{5, 20, 20})
		tag := fmt.Sprintf("maxdf=%d", maxDF)
		rescanned, repaired := streamEquals(t, tag, base, batches, BuilderConfig{K: 5, MaxDF: maxDF, Workers: 3})
		requireBothPaths(t, tag, rescanned, repaired)
	}
}

// TestUpdaterRepeatedAndEmptyBatches: re-streaming already-seen sentences
// only bumps counts (no new vertices), and empty batches are no-ops.
func TestUpdaterRepeatedAndEmptyBatches(t *testing.T) {
	base, batches := synthBatches(11, 40, []int{10})
	u, err := NewUpdater(base, BuilderConfig{K: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.AddSentences(nil); err != nil {
		t.Fatal(err)
	}
	res, err := u.AddSentences(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVertices == 0 {
		t.Fatal("fresh batch introduced no vertices")
	}
	n := u.Graph().NumVertices()
	res2, err := u.AddSentences(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if res2.NewVertices != 0 || u.Graph().NumVertices() != n {
		t.Fatalf("re-streaming known sentences appended %d vertices", res2.NewVertices)
	}
	union := unionOf(base)
	union.Sentences = append(union.Sentences, batches[0]...)
	union.Sentences = append(union.Sentences, batches[0]...)
	full := BuilderConfig{K: 5, Workers: 2, Stats: u.Stats()}
	want, err := Build(union, full)
	if err != nil {
		t.Fatal(err)
	}
	assertCanonicalEqual(t, "repeat", u.Graph(), want)
}

// TestUpdaterCloneIsolated: updating a clone leaves the original intact.
func TestUpdaterCloneIsolated(t *testing.T) {
	base, batches := synthBatches(13, 40, []int{10})
	u, err := NewUpdater(base, BuilderConfig{K: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := u.Graph().CanonicalClone()
	c := u.Clone()
	if _, err := c.AddSentences(batches[0]); err != nil {
		t.Fatal(err)
	}
	if !u.Graph().CanonicalClone().Equal(before) {
		t.Fatal("updating a clone mutated the original")
	}
	if c.Graph().NumVertices() == u.Graph().NumVertices() {
		t.Fatal("clone did not grow")
	}
}

// TestPatchCSRMatchesBuildCSR: the patched CSR mirror after an update is
// exactly what a from-scratch BuildCSR derives.
func TestPatchCSRMatchesBuildCSR(t *testing.T) {
	base, batches := synthBatches(17, 50, []int{15})
	u, err := NewUpdater(base, BuilderConfig{K: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.AddSentences(batches[0]); err != nil {
		t.Fatal(err)
	}
	g := u.Graph()
	off, to, w := g.EdgeOffsets, g.EdgeTo, g.EdgeWeight
	g.BuildCSR()
	if len(off) != len(g.EdgeOffsets) || len(to) != len(g.EdgeTo) {
		t.Fatal("patched CSR shape differs from rebuilt CSR")
	}
	for i := range off {
		if off[i] != g.EdgeOffsets[i] {
			t.Fatalf("offset %d: patched %d, rebuilt %d", i, off[i], g.EdgeOffsets[i])
		}
	}
	for i := range to {
		if to[i] != g.EdgeTo[i] || w[i] != g.EdgeWeight[i] { // lint:checked bit-equality is the contract under test
			t.Fatalf("edge %d: patched {%d,%v}, rebuilt {%d,%v}", i, to[i], w[i], g.EdgeTo[i], g.EdgeWeight[i])
		}
	}
}

// BenchmarkUpdaterVsBuild times folding one batch into a maintained graph
// against a from-scratch Build of the union corpus. The base is 1,000
// BC2GM sentences (synth seed 5); batches of 10, 50 and 250 come from an
// unlabelled seed-6 pool; K=10 with MaxDF 2000, the experiments' graph
// setting. Rebuilds run under the Updater's frozen statistics, the
// configuration that reproduces the maintained graph exactly and the
// cheapest rebuild (no corpus-wide recount), so Build's time is a lower
// bound. The incremental side also reports the batch's dirty, repaired
// and rescanned rows.
//
//	go test -run '^$' -bench BenchmarkUpdaterVsBuild -benchtime 5x ./internal/graph
func BenchmarkUpdaterVsBuild(b *testing.B) {
	gen := func(seed int64, n int) *corpus.Corpus {
		cfg := synth.DefaultConfig(synth.BC2GM, seed)
		cfg.Sentences = n
		return synth.NewGenerator(cfg).Generate()
	}
	base := gen(5, 1000)
	pool := gen(6, 250).StripLabels()
	cfg := BuilderConfig{K: 10, MaxDF: 2000}
	u0, err := NewUpdater(base, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rcfg := cfg
	rcfg.Stats = u0.Stats()
	for _, bs := range []int{10, 50, 250} {
		batch := pool.Sentences[:bs]
		union := unionOf(base)
		union.Sentences = append(union.Sentences, batch...)
		b.Run(fmt.Sprintf("batch=%d/updater", bs), func(b *testing.B) {
			b.ReportAllocs()
			var res UpdateResult
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := u0.Clone()
				b.StartTimer()
				r, err := u.AddSentences(batch)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(float64(len(res.DirtyRows)), "dirty_rows")
			b.ReportMetric(float64(res.RepairedRows), "repaired_rows")
			b.ReportMetric(float64(res.RescannedRows), "rescanned_rows")
		})
		b.Run(fmt.Sprintf("batch=%d/build", bs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(union, rcfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
