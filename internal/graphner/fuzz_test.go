package graphner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/tokenize"
)

// frameArtifact wraps payload in a valid header (magic, version, length,
// SHA-256), so a fuzzed payload reaches the decoder instead of stopping
// at the checksum.
func frameArtifact(payload []byte) []byte {
	out := make([]byte, artifactHeaderSize, artifactHeaderSize+len(payload))
	copy(out, artifactMagic)
	binary.LittleEndian.PutUint32(out[8:], artifactVersion)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[24:], sum[:])
	return append(out, payload...)
}

// tinyArtifactPayload freezes a system trained on two three-word
// sentences and returns its payload (the bytes after the header). The
// payload is ~6.6 KB; a larger one spends the fuzzing budget on mutations
// of model weights, which the decoder only checks by count.
func tinyArtifactPayload(f *testing.F) []byte {
	f.Helper()
	sentence := func(text string, tags ...corpus.Tag) *corpus.Sentence {
		return &corpus.Sentence{ID: text, Text: text, Tokens: tokenize.Sentence(text), Tags: tags}
	}
	train, test := corpus.New(), corpus.New()
	train.Sentences = []*corpus.Sentence{
		sentence("BRCA is mutated", corpus.B, corpus.O, corpus.O),
		sentence("the KIT gene", corpus.O, corpus.B, corpus.O),
	}
	test.Sentences = []*corpus.Sentence{sentence("KIT is mutated")}
	gcfg := Default()
	gcfg.Order = crf.Order1
	gcfg.CRFIterations = 3
	sys, err := Train(train, gcfg)
	if err != nil {
		f.Fatal(err)
	}
	art, err := sys.Freeze(test, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()[artifactHeaderSize:]
}

// FuzzReadArtifact feeds arbitrary payloads, framed with a valid header
// and checksum, to ReadArtifact. Every input must either be refused with
// an error or decode into an artifact that can be served: System
// succeeds, the gold transitions can be estimated from the stored train
// corpus, and every graph edge points at a vertex.
func FuzzReadArtifact(f *testing.F) {
	payload := tinyArtifactPayload(f)
	for _, n := range []int{len(payload), len(payload) - 1, len(payload) / 2, len(payload) / 4, 64, 0} {
		f.Add(payload[:n])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		art, err := ReadArtifact(bytes.NewReader(frameArtifact(payload)))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error")
			}
			return
		}
		if _, err := art.System(nil); err != nil {
			t.Fatalf("decoded artifact has no system: %v", err)
		}
		art.Transitions()
		g := art.Graph()
		if len(art.Beliefs()) != g.NumVertices()*corpus.NumTags {
			t.Fatalf("%d belief entries for %d vertices", len(art.Beliefs()), g.NumVertices())
		}
		for v, es := range g.Neighbors {
			for _, e := range es {
				if e.To < 0 || int(e.To) >= g.NumVertices() {
					t.Fatalf("vertex %d has edge to %d, outside [0,%d)", v, e.To, g.NumVertices())
				}
			}
		}
	})
}
