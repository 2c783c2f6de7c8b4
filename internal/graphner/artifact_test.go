package graphner

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/graph"
	"repro/internal/tokenize"
)

// frozenSystem trains a small system and runs the TEST pass an artifact
// freezes. The result is cached — several tests share it read-only, and
// training is the dominant cost.
var frozenOnce struct {
	sync.Once
	sys  *System
	test *corpus.Corpus
	out  *Output
	err  error
}

func frozenSystem(t *testing.T) (*System, *corpus.Corpus, *Output) {
	t.Helper()
	frozenOnce.Do(func() {
		cfg := synth.DefaultConfig(synth.AML, 31)
		cfg.Sentences = 200
		train, test := synth.GenerateSplit(cfg)
		gcfg := fastConfig()
		gcfg.CRFIterations = 20
		sys, err := Train(train, gcfg)
		if err != nil {
			frozenOnce.err = err
			return
		}
		out, err := sys.Test(test)
		if err != nil {
			frozenOnce.err = err
			return
		}
		frozenOnce.sys, frozenOnce.test, frozenOnce.out = sys, test, out
	})
	if frozenOnce.err != nil {
		t.Fatal(frozenOnce.err)
	}
	return frozenOnce.sys, frozenOnce.test, frozenOnce.out
}

func TestArtifactRoundTrip(t *testing.T) {
	sys, test, out := frozenSystem(t)
	art, err := sys.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Checksum() == "" || got.Checksum() != art.Checksum() {
		t.Errorf("checksum mismatch: wrote %q, read %q", art.Checksum(), got.Checksum())
	}
	if !reflect.DeepEqual(got.Config(), art.Config()) {
		t.Errorf("config round trip: got %+v want %+v", got.Config(), art.Config())
	}
	if got.Config().LossEvery != -1 {
		t.Errorf("frozen LossEvery = %d, want the serving default -1", got.Config().LossEvery)
	}
	if !reflect.DeepEqual(got.Model(), art.Model()) {
		t.Error("model lost in round trip")
	}
	if !got.Graph().Equal(art.Graph()) {
		t.Error("graph lost in round trip")
	}
	if !reflect.DeepEqual(got.Beliefs(), art.Beliefs()) {
		t.Error("beliefs lost in round trip")
	}
	if !reflect.DeepEqual(got.names, art.names) {
		t.Error("alphabet lost in round trip")
	}
	if !reflect.DeepEqual(got.xref, art.xref) {
		t.Error("reference distributions lost in round trip")
	}
	if !reflect.DeepEqual(got.Transitions(), art.Transitions()) {
		t.Error("transitions differ after round trip")
	}
	if len(got.FrozenCorpus().Sentences) != len(test.Sentences) {
		t.Fatalf("frozen corpus has %d sentences, want %d",
			len(got.FrozenCorpus().Sentences), len(test.Sentences))
	}

	// The reconstructed system must reproduce the frozen TEST labels.
	loaded, err := got.System(nil)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := loaded.Test(got.FrozenCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Tags, out2.Tags) {
		t.Error("reconstructed system labels the frozen corpus differently")
	}
}

// TestArtifactFullConfigRoundTrip pins the config section: every
// persisted Config field, set to a non-default value, comes back from
// WriteTo/ReadArtifact unchanged — including the deprecated Shards, which
// the format still carries. Workers and Extractor are machine-local and
// stored as their zero values.
func TestArtifactFullConfigRoundTrip(t *testing.T) {
	sys, test, out := frozenSystem(t)
	want := Config{
		Alpha:           0.17,
		Mu:              3e-5,
		Nu:              4e-6,
		Iterations:      5,
		K:               7,
		Mode:            graph.MIFeatures,
		MIThreshold:     0.125,
		Order:           crf.Order1,
		L2:              2.5,
		CRFIterations:   10,
		MaxDF:           123,
		Shards:          3,
		LossEvery:       4,
		TransitionPower: 0.11,
	}
	cp := *sys
	cp.cfg = want
	cp.cfg.Workers = 3
	cp.cfg.Extractor = sys.cfg.Extractor
	art, err := cp.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Config(), want) {
		t.Errorf("config after artifact round trip:\n got %+v\nwant %+v", got.Config(), want)
	}
}

// TestArtifactDeterministic locks in the byte-determinism contract: two
// writes of the same artifact are identical files with identical
// checksums.
func TestArtifactDeterministic(t *testing.T) {
	sys, test, out := frozenSystem(t)
	art, err := sys.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := art.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	sum := art.Checksum()
	if _, err := art.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same artifact differ")
	}
	if art.Checksum() != sum {
		t.Fatal("checksum changed between identical writes")
	}
}

func TestFreezeValidates(t *testing.T) {
	sys, test, out := frozenSystem(t)
	if _, err := sys.Freeze(corpus.New(), nil); err == nil {
		t.Error("empty frozen corpus accepted")
	}
	if _, err := sys.Freeze(test, &Output{}); err == nil {
		t.Error("output without graph accepted")
	}
	bad := *out
	bad.VertexBeliefs = out.VertexBeliefs[:1]
	if _, err := sys.Freeze(test, &bad); err == nil {
		t.Error("belief/vertex count mismatch accepted")
	}
}

// wantReadError writes the artifact, applies corrupt to the bytes, and
// asserts ReadArtifact fails mentioning substr.
func wantReadError(t *testing.T, art *Artifact, corrupt func([]byte) []byte, substr string) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := corrupt(append([]byte(nil), buf.Bytes()...))
	_, err := ReadArtifact(bytes.NewReader(raw))
	if err == nil {
		t.Fatalf("corrupted artifact (%s) accepted", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestArtifactReadFailures(t *testing.T) {
	sys, test, out := frozenSystem(t)
	art, err := sys.Freeze(test, out)
	if err != nil {
		t.Fatal(err)
	}
	ident := func(b []byte) []byte { return b }

	wantReadError(t, art, func(b []byte) []byte { return b[:10] }, "truncated header")
	wantReadError(t, art, func(b []byte) []byte { return b[:len(b)-7] }, "truncated payload")
	wantReadError(t, art, func(b []byte) []byte { b[0] = 'X'; return b }, "magic")
	wantReadError(t, art, func(b []byte) []byte { b[8] = 99; return b }, "version")
	wantReadError(t, art, func(b []byte) []byte { b[8] = 2; return b }, "artifact version 2 is no longer supported; re-freeze")
	wantReadError(t, art, func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum")

	// Structural failures: encode a deliberately inconsistent artifact
	// (same package, so the fields are reachable) and verify the decoder
	// rejects it rather than building a partial artifact.
	short := *art
	short.beliefs = art.beliefs[:len(art.beliefs)-corpus.NumTags]
	wantReadError(t, &short, ident, "belief matrix")

	badModel := *art
	m := *art.model
	m.W = m.W[:len(m.W)-1]
	badModel.model = &m
	wantReadError(t, &badModel, ident, "emission weights")

	badNames := *art
	badNames.names = art.names[:len(art.names)-1]
	wantReadError(t, &badNames, ident, "alphabet")

	badTags := *art
	badTags.train = corpus.New()
	badTags.train.Sentences = append(badTags.train.Sentences, &corpus.Sentence{
		ID: "bad", Text: "a b c", Tokens: tokenize.Sentence("a b c"),
		Tags: []corpus.Tag{corpus.O},
	})
	wantReadError(t, &badTags, ident, "tags for")

	badTag := *art
	badTag.train = corpus.New()
	badTag.train.Sentences = append(badTag.train.Sentences, &corpus.Sentence{
		ID: "bad", Text: "a", Tokens: tokenize.Sentence("a"),
		Tags: []corpus.Tag{corpus.NumTags},
	})
	wantReadError(t, &badTag, ident, "has tag 3")

	badOrder := *art
	mo := *art.model
	mo.Order = 7
	badOrder.model = &mo
	wantReadError(t, &badOrder, ident, "invalid shape")

	// Offsets that stay non-decreasing but start below zero would index
	// EdgeTo at -3 while rebuilding the adjacency lists.
	badOffsets := *art
	g := *art.graph
	g.EdgeOffsets = append([]int32(nil), g.EdgeOffsets...)
	g.EdgeOffsets[0] = -3
	badOffsets.graph = &g
	wantReadError(t, &badOffsets, ident, "offsets start")

	// Non-finite numbers, one case per numeric field the decoder reads
	// into the model, the graph and the beliefs, and a belief outside
	// [0, 1]. Each field is copied before it is spoiled.
	spoil := func(vs []float64, i int, v float64) []float64 {
		vs = append([]float64(nil), vs...)
		vs[i] = v
		return vs
	}
	for _, tc := range []struct {
		field string
		set   func(a *Artifact, m *crf.Model, g *graph.Graph)
		want  string
	}{
		{"W", func(_ *Artifact, m *crf.Model, _ *graph.Graph) { m.W = spoil(m.W, 5, math.NaN()) }, "model W[5] = NaN is not finite"},
		{"T", func(_ *Artifact, m *crf.Model, _ *graph.Graph) { m.T = spoil(m.T, 2, math.Inf(1)) }, "model T[2] = +Inf is not finite"},
		{"Start", func(_ *Artifact, m *crf.Model, _ *graph.Graph) { m.Start = spoil(m.Start, 0, math.Inf(-1)) }, "model Start[0] = -Inf is not finite"},
		{"edge weight", func(_ *Artifact, _ *crf.Model, g *graph.Graph) { g.EdgeWeight = spoil(g.EdgeWeight, 3, math.NaN()) }, "graph edge weight[3] = NaN is not finite"},
		{"NaN belief", func(a *Artifact, _ *crf.Model, _ *graph.Graph) { a.beliefs = spoil(a.beliefs, 4, math.NaN()) }, "belief[4] = NaN is outside [0, 1]"},
		{"belief above 1", func(a *Artifact, _ *crf.Model, _ *graph.Graph) { a.beliefs = spoil(a.beliefs, 7, 1.5) }, "belief[7] = 1.5 is outside [0, 1]"},
	} {
		t.Run(tc.field, func(t *testing.T) {
			bad := *art
			m, g := *art.model, *art.graph
			bad.model, bad.graph = &m, &g
			tc.set(&bad, &m, &g)
			wantReadError(t, &bad, ident, tc.want)
		})
	}

	// A model-less artifact must fail at write time.
	if _, err := (&Artifact{}).WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("artifact without model serialized")
	}
}
