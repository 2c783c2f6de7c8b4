package graphner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/tokenize"
)

// Artifact is the frozen, shareable serving bundle: everything a
// long-lived tagging process needs to answer requests without retraining
// or rebuilding — the trained CRF, the compiled feature alphabet, the
// reference distributions, the similarity graph, and the propagated
// vertex beliefs of one TEST pass (Algorithm 1 line 7). A server that
// loads an Artifact reproduces System.Test's labels exactly for the
// frozen sentences and extends the same decision rule — α·P_s + (1−α)·X
// followed by tempered Viterbi — to fresh traffic.
//
// The on-disk form is a single binary blob: a fixed-size header (magic,
// version, payload length, SHA-256 content checksum) followed by a
// byte-deterministic payload, so cold starts are one sequential read with
// end-to-end validation and identical artifacts are identical files.
type Artifact struct {
	cfg     Config // Workers and Extractor are machine-local, never stored
	model   *crf.Model
	names   []string
	xref    map[corpus.NGram][]float64
	train   *corpus.Corpus
	frozen  *corpus.Corpus
	graph   *graph.Graph
	beliefs []float64 // flat NumVertices×corpus.NumTags propagated X
	sum     [sha256.Size]byte
	sumSet  bool
}

// Artifact header constants. The magic is 8 bytes so the header stays
// 8-byte aligned: magic, version+reserved, payload length, checksum.
const (
	artifactMagic = "GNERARTF"
	// Version history: 1 — initial layout; 2 — the graph mode and the
	// approximate search's knobs appended to the config section; 3 —
	// those values dropped with the approximate builder. Only the
	// current version loads.
	artifactVersion = 3
)

// artifactHeaderSize is the fixed byte length of the header:
// 8 (magic) + 4 (version) + 4 (reserved) + 8 (payload length) + 32 (SHA-256).
const artifactHeaderSize = 8 + 4 + 4 + 8 + sha256.Size

// Freeze packages the system and one transductive TEST pass over frozen
// into an Artifact. out must be the result of Test (or TestWithGraph /
// TestWithExtra) on this system over exactly frozen; pass nil to run Test
// here. When the system's LossEvery is the legacy 0 schedule, the
// internal Test runs with LossEvery = -1 — the diagnostic loss pass costs
// a full edge sweep and nothing on the serving path reads it; an explicit
// positive schedule is honoured. The loss schedule never changes labels
// or beliefs, so the frozen artifact serves tags bit-identical to
// System.Test either way.
func (s *System) Freeze(frozen *corpus.Corpus, out *Output) (*Artifact, error) {
	if len(frozen.Sentences) == 0 {
		return nil, fmt.Errorf("graphner: freeze: empty frozen corpus")
	}
	if out == nil {
		sys := s
		if s.cfg.LossEvery == 0 {
			cp := *s
			cp.cfg.LossEvery = -1
			sys = &cp
		}
		var err error
		if out, err = sys.Test(frozen); err != nil {
			return nil, fmt.Errorf("graphner: freeze: %w", err)
		}
	}
	if out.Graph == nil {
		return nil, fmt.Errorf("graphner: freeze: output carries no graph")
	}
	n := out.Graph.NumVertices()
	if len(out.VertexBeliefs) != n {
		return nil, fmt.Errorf("graphner: freeze: %d belief rows for %d vertices", len(out.VertexBeliefs), n)
	}
	const Y = corpus.NumTags
	beliefs := make([]float64, n*Y)
	for v, row := range out.VertexBeliefs {
		if row == nil {
			// Vertices propagation never materialized stay uniform, the
			// same default propagate.Run applies.
			for y := 0; y < Y; y++ {
				beliefs[v*Y+y] = 1.0 / Y
			}
			continue
		}
		copy(beliefs[v*Y:(v+1)*Y], row)
	}
	cfg := s.cfg
	cfg.Workers = 0
	cfg.Extractor = nil
	if cfg.LossEvery == 0 {
		cfg.LossEvery = -1 // serving default: skip the diagnostic loss pass
	}
	return &Artifact{
		cfg:     cfg,
		model:   s.model,
		names:   s.compiler.Alphabet.Names(),
		xref:    s.xref,
		train:   s.train,
		frozen:  frozen.StripLabels(),
		graph:   out.Graph.EnsureCSR(),
		beliefs: beliefs,
	}, nil
}

// Config returns the frozen configuration. Workers is zero (machine-local,
// re-derived from GOMAXPROCS by System) and Extractor is nil.
func (a *Artifact) Config() Config { return a.cfg }

// Model exposes the frozen CRF.
func (a *Artifact) Model() *crf.Model { return a.model }

// Graph exposes the frozen similarity graph (CSR built).
func (a *Artifact) Graph() *graph.Graph { return a.graph }

// Beliefs returns the flat propagated vertex belief matrix, indexed like
// Graph().Vertices (row v at [v*corpus.NumTags : (v+1)*corpus.NumTags]).
func (a *Artifact) Beliefs() []float64 { return a.beliefs }

// Transitions returns the gold tag-transition matrix T_s estimated from
// the frozen training corpus (the matrix Algorithm 1's final re-decode
// uses).
func (a *Artifact) Transitions() [][]float64 { return GoldTransitions(a.train) }

// TrainCorpus returns the labelled training corpus frozen into the
// artifact.
func (a *Artifact) TrainCorpus() *corpus.Corpus { return a.train }

// FrozenCorpus returns the unlabelled corpus the graph and beliefs were
// frozen over (labels stripped).
func (a *Artifact) FrozenCorpus() *corpus.Corpus { return a.frozen }

// NewCompiler builds a sentence compiler over the frozen feature alphabet.
// extractor must match the training-time configuration; nil means the
// plain BANNER-style extractor. The alphabet is frozen, so the compiler is
// safe for concurrent use.
func (a *Artifact) NewCompiler(extractor *features.Extractor) *crf.Compiler {
	if extractor == nil {
		extractor = features.NewExtractor(nil)
	}
	return &crf.Compiler{Extractor: extractor, Alphabet: features.NewAlphabetFromNames(a.names)}
}

// System reconstructs a full *System from the artifact — the streaming
// serving mode uses this to drive graph.Updater/Streamer fold-ins.
// extractor is as in NewCompiler.
func (a *Artifact) System(extractor *features.Extractor) (*System, error) {
	if a.model == nil {
		return nil, fmt.Errorf("graphner: artifact has no model")
	}
	if extractor == nil {
		extractor = features.NewExtractor(nil)
	}
	cfg := a.cfg
	cfg.Extractor = extractor
	cfg.Workers = 0
	cfg.defaults()
	return &System{
		cfg:      cfg,
		compiler: a.NewCompiler(extractor),
		model:    a.model,
		train:    a.train,
		xref:     a.xref,
	}, nil
}

// Checksum returns the hex SHA-256 content checksum of the payload, set by
// WriteTo and ReadArtifact ("" before either has run).
func (a *Artifact) Checksum() string {
	if !a.sumSet {
		return ""
	}
	return hex.EncodeToString(a.sum[:])
}

// WriteTo serializes the artifact: header (magic, version, payload length,
// SHA-256 of the payload) followed by the payload. The encoding is
// byte-deterministic — reference distributions are emitted in sorted
// 3-gram order and every other section has one canonical order — so two
// writes of the same artifact produce identical bytes and the checksum
// identifies content, not encoding accidents.
func (a *Artifact) WriteTo(w io.Writer) (int64, error) {
	if a.model == nil {
		return 0, fmt.Errorf("graphner: artifact write: no model")
	}
	var payload bytes.Buffer
	if err := a.encodePayload(&payload); err != nil {
		return 0, fmt.Errorf("graphner: artifact write: %w", err)
	}
	a.sum = sha256.Sum256(payload.Bytes())
	a.sumSet = true
	hdr := make([]byte, artifactHeaderSize)
	copy(hdr, artifactMagic)
	binary.LittleEndian.PutUint32(hdr[8:], artifactVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(payload.Len()))
	copy(hdr[24:], a.sum[:])
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, fmt.Errorf("graphner: artifact write: %w", err)
	}
	m, err := w.Write(payload.Bytes())
	total += int64(m)
	if err != nil {
		return total, fmt.Errorf("graphner: artifact write: %w", err)
	}
	return total, nil
}

// ReadArtifact deserializes and validates an artifact written by WriteTo:
// header shape, version, payload length, SHA-256 checksum, and structural
// consistency (model weight shapes, tag/token alignment of the stored
// corpora, CSR well-formedness, belief matrix size). Every failure returns
// a descriptive error; no partially constructed artifact escapes.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	hdr := make([]byte, artifactHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("graphner: artifact: truncated header: %w", err)
	}
	if string(hdr[:8]) != artifactMagic {
		return nil, fmt.Errorf("graphner: artifact: bad magic %q (not a graphner artifact)", hdr[:8])
	}
	switch v := binary.LittleEndian.Uint32(hdr[8:]); {
	case v >= 1 && v < artifactVersion:
		return nil, fmt.Errorf("graphner: artifact version %d is no longer supported; re-freeze", v)
	case v != artifactVersion:
		return nil, fmt.Errorf("graphner: artifact: unsupported version %d (want %d)", v, artifactVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[16:])
	const maxPayload = 1 << 36 // 64 GiB sanity bound on the length prefix
	if plen > maxPayload {
		return nil, fmt.Errorf("graphner: artifact: implausible payload length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("graphner: artifact: truncated payload (header promises %d bytes): %w", plen, err)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], hdr[24:24+sha256.Size]) {
		return nil, fmt.Errorf("graphner: artifact: checksum mismatch (stored %x, computed %x)", hdr[24:24+sha256.Size], sum[:8])
	}
	a := &Artifact{sum: sum, sumSet: true}
	if err := a.decodePayload(payload); err != nil {
		return nil, fmt.Errorf("graphner: artifact: %w", err)
	}
	return a, nil
}

// ---- payload encoding ----
//
// Everything is little-endian. Variable-length sections carry a uint64
// count; strings are length-prefixed UTF-8. The section order is fixed:
// config, model, alphabet, xref, train corpus, frozen corpus, graph
// (vertices + CSR), beliefs.

type xrefEntry struct {
	G corpus.NGram
	D []float64
}

// sortedXref flattens a reference-distribution map into a slice sorted by
// 3-gram, the canonical order the payload stores it in.
func sortedXref(m map[corpus.NGram][]float64) []xrefEntry {
	out := make([]xrefEntry, 0, len(m))
	for g, d := range m {
		out = append(out, xrefEntry{G: g, D: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].G < out[j].G })
	return out
}

// savedSentence is a stored sentence before re-tokenization.
type savedSentence struct {
	ID   string
	Text string
	Tags []corpus.Tag
}

// restoreCorpus re-tokenizes a saved sentence list, validating that
// stored tag sequences still align with the tokenization and hold only
// BIO tags.
func restoreCorpus(saved []savedSentence) (*corpus.Corpus, error) {
	c := corpus.New()
	for _, sv := range saved {
		sent := &corpus.Sentence{ID: sv.ID, Text: sv.Text, Tokens: tokenize.Sentence(sv.Text), Tags: sv.Tags}
		if sv.Tags != nil && len(sv.Tags) != len(sent.Tokens) {
			return nil, fmt.Errorf("sentence %q has %d tags for %d tokens", sv.ID, len(sv.Tags), len(sent.Tokens))
		}
		for _, y := range sv.Tags {
			if y >= corpus.NumTags {
				return nil, fmt.Errorf("sentence %q has tag %d, want < %d", sv.ID, y, corpus.NumTags)
			}
		}
		c.Sentences = append(c.Sentences, sent)
	}
	return c, nil
}

type binWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (b *binWriter) bytes(p []byte) {
	if b.err == nil {
		_, b.err = b.w.Write(p)
	}
}

func (b *binWriter) u8(v uint8) { b.bytes([]byte{v}) }

func (b *binWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:], v)
	b.bytes(b.buf[:])
}

func (b *binWriter) i64(v int64) { b.u64(uint64(v)) }

func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b *binWriter) str(s string) {
	b.u64(uint64(len(s)))
	b.bytes([]byte(s))
}

func (b *binWriter) f64s(vs []float64) {
	b.u64(uint64(len(vs)))
	for _, v := range vs {
		b.f64(v)
	}
}

func (b *binWriter) i32s(vs []int32) {
	b.u64(uint64(len(vs)))
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b.buf[:4], uint32(v))
		b.bytes(b.buf[:4])
	}
}

func (b *binWriter) strs(ss []string) {
	b.u64(uint64(len(ss)))
	for _, s := range ss {
		b.str(s)
	}
}

func (a *Artifact) encodePayload(w io.Writer) error {
	b := &binWriter{w: w}
	// Config.
	cfg := a.cfg
	b.f64(cfg.Alpha)
	b.f64(cfg.Mu)
	b.f64(cfg.Nu)
	b.f64(cfg.MIThreshold)
	b.f64(cfg.L2)
	b.f64(cfg.TransitionPower)
	b.i64(int64(cfg.Iterations))
	b.i64(int64(cfg.K))
	b.i64(int64(cfg.Mode))
	b.i64(int64(cfg.Order))
	b.i64(int64(cfg.CRFIterations))
	b.i64(int64(cfg.MaxDF))
	b.i64(int64(cfg.Shards)) // deprecated and unread
	b.i64(int64(cfg.LossEvery))
	// Model.
	m := a.model
	b.i64(int64(m.Order))
	b.i64(int64(m.NumFeatures))
	b.i64(int64(m.S))
	if m.BIO {
		b.u8(1)
	} else {
		b.u8(0)
	}
	b.f64s(m.W)
	b.f64s(m.T)
	b.f64s(m.Start)
	// Alphabet.
	b.strs(a.names)
	// Reference distributions, in sorted 3-gram order (determinism).
	entries := sortedXref(a.xref)
	b.u64(uint64(len(entries)))
	for _, e := range entries {
		b.str(string(e.G))
		if len(e.D) != corpus.NumTags {
			return fmt.Errorf("reference distribution for %q has %d entries, want %d", e.G, len(e.D), corpus.NumTags)
		}
		for _, v := range e.D {
			b.f64(v)
		}
	}
	// Corpora.
	encCorpus := func(c *corpus.Corpus, withTags bool) {
		b.u64(uint64(len(c.Sentences)))
		for _, s := range c.Sentences {
			b.str(s.ID)
			b.str(s.Text)
			if !withTags {
				continue
			}
			if s.Tags == nil {
				b.u8(0)
				continue
			}
			b.u8(1)
			b.u64(uint64(len(s.Tags)))
			for _, t := range s.Tags {
				b.u8(uint8(t))
			}
		}
	}
	encCorpus(a.train, true)
	encCorpus(a.frozen, false)
	// Graph: vertices then the CSR arrays.
	g := a.graph.EnsureCSR()
	b.i64(int64(g.K))
	b.u64(uint64(len(g.Vertices)))
	for _, v := range g.Vertices {
		b.str(string(v))
	}
	b.i32s(g.EdgeOffsets)
	b.i32s(g.EdgeTo)
	b.f64s(g.EdgeWeight)
	// Beliefs.
	b.f64s(a.beliefs)
	return b.err
}

type binReader struct {
	p   []byte
	off int
	err error
}

func (b *binReader) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *binReader) take(n int) []byte {
	if b.err != nil {
		return nil
	}
	if n < 0 || b.off+n > len(b.p) || b.off+n < b.off {
		b.fail("payload truncated at offset %d (need %d more bytes)", b.off, n)
		return nil
	}
	out := b.p[b.off : b.off+n]
	b.off += n
	return out
}

func (b *binReader) u8() uint8 {
	p := b.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (b *binReader) u64() uint64 {
	p := b.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (b *binReader) i64() int64 { return int64(b.u64()) }

func (b *binReader) f64() float64 { return math.Float64frombits(b.u64()) }

// count reads a uint64 length prefix and bounds it by the bytes actually
// remaining (elemSize ≥ 1 per element), so corrupt prefixes fail with a
// truncation error instead of attempting a huge allocation.
func (b *binReader) count(elemSize int) int {
	n := b.u64()
	if b.err != nil {
		return 0
	}
	if rem := len(b.p) - b.off; n > uint64(rem/elemSize) {
		b.fail("payload truncated: count %d at offset %d exceeds remaining %d bytes", n, b.off-8, rem)
		return 0
	}
	return int(n)
}

func (b *binReader) str() string {
	n := b.count(1)
	return string(b.take(n))
}

func (b *binReader) f64s() []float64 {
	n := b.count(8)
	if b.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = b.f64()
	}
	return out
}

func (b *binReader) i32s() []int32 {
	n := b.count(4)
	if b.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		p := b.take(4)
		if p == nil {
			return nil
		}
		out[i] = int32(binary.LittleEndian.Uint32(p))
	}
	return out
}

func (b *binReader) strs() []string {
	n := b.count(8)
	if b.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = b.str()
	}
	return out
}

func (a *Artifact) decodePayload(payload []byte) error {
	b := &binReader{p: payload}
	// Config.
	cfg := Config{}
	cfg.Alpha = b.f64()
	cfg.Mu = b.f64()
	cfg.Nu = b.f64()
	cfg.MIThreshold = b.f64()
	cfg.L2 = b.f64()
	cfg.TransitionPower = b.f64()
	cfg.Iterations = int(b.i64())
	cfg.K = int(b.i64())
	cfg.Mode = graph.FeatureMode(b.i64())
	cfg.Order = crf.Order(b.i64())
	cfg.CRFIterations = int(b.i64())
	cfg.MaxDF = int(b.i64())
	cfg.Shards = int(b.i64())
	cfg.LossEvery = int(b.i64())
	a.cfg = cfg
	// Model.
	m := &crf.Model{}
	m.Order = crf.Order(b.i64())
	m.NumFeatures = int(b.i64())
	m.S = int(b.i64())
	m.BIO = b.u8() == 1
	m.W = b.f64s()
	m.T = b.f64s()
	m.Start = b.f64s()
	if b.err != nil {
		return b.err
	}
	states := corpus.NumTags
	if m.Order == crf.Order2 {
		states *= corpus.NumTags
	}
	if (m.Order != crf.Order1 && m.Order != crf.Order2) || m.S != states || m.NumFeatures < 0 {
		return fmt.Errorf("model has invalid shape (order=%d, S=%d, features=%d)", m.Order, m.S, m.NumFeatures)
	}
	if len(m.W) != m.NumFeatures*m.S {
		return fmt.Errorf("model has %d emission weights for %d features × %d states", len(m.W), m.NumFeatures, m.S)
	}
	if len(m.T) != m.S*m.S || len(m.Start) != m.S {
		return fmt.Errorf("model has %d transition and %d start weights for %d states", len(m.T), len(m.Start), m.S)
	}
	for _, w := range []struct {
		name string
		vs   []float64
	}{{"W", m.W}, {"T", m.T}, {"Start", m.Start}} {
		if err := checkFinite("model "+w.name, w.vs); err != nil {
			return err
		}
	}
	a.model = m
	// Alphabet.
	a.names = b.strs()
	if b.err == nil && len(a.names) != m.NumFeatures {
		return fmt.Errorf("alphabet has %d names for %d model features", len(a.names), m.NumFeatures)
	}
	// Reference distributions.
	nx := b.count(8)
	a.xref = make(map[corpus.NGram][]float64, nx)
	for i := 0; i < nx && b.err == nil; i++ {
		g := corpus.NGram(b.str())
		d := make([]float64, corpus.NumTags)
		for y := range d {
			d[y] = b.f64()
		}
		a.xref[g] = d
	}
	// Corpora.
	decCorpus := func(withTags bool) []savedSentence {
		n := b.count(1)
		out := make([]savedSentence, 0, n)
		for i := 0; i < n && b.err == nil; i++ {
			sv := savedSentence{ID: b.str(), Text: b.str()}
			if withTags && b.u8() == 1 {
				nt := b.count(1)
				sv.Tags = make([]corpus.Tag, nt)
				for j := range sv.Tags {
					sv.Tags[j] = corpus.Tag(b.u8())
				}
			}
			out = append(out, sv)
		}
		return out
	}
	trainSaved := decCorpus(true)
	frozenSaved := decCorpus(false)
	if b.err != nil {
		return b.err
	}
	var err error
	if a.train, err = restoreCorpus(trainSaved); err != nil {
		return fmt.Errorf("train corpus: %w", err)
	}
	if a.frozen, err = restoreCorpus(frozenSaved); err != nil {
		return fmt.Errorf("frozen corpus: %w", err)
	}
	// Graph.
	g := &graph.Graph{K: int(b.i64())}
	nv := b.count(8)
	g.Vertices = make([]corpus.NGram, 0, nv)
	g.Index = make(map[corpus.NGram]int, nv)
	for i := 0; i < nv && b.err == nil; i++ {
		v := corpus.NGram(b.str())
		g.Index[v] = len(g.Vertices)
		g.Vertices = append(g.Vertices, v)
	}
	g.EdgeOffsets = b.i32s()
	g.EdgeTo = b.i32s()
	g.EdgeWeight = b.f64s()
	a.beliefs = b.f64s()
	if b.err != nil {
		return b.err
	}
	if b.off != len(b.p) {
		return fmt.Errorf("payload has %d trailing bytes", len(b.p)-b.off)
	}
	// CSR validation and Neighbors reconstruction.
	if len(g.EdgeOffsets) != nv+1 {
		return fmt.Errorf("graph has %d edge offsets for %d vertices", len(g.EdgeOffsets), nv)
	}
	if len(g.EdgeTo) != len(g.EdgeWeight) {
		return fmt.Errorf("graph has %d edge targets but %d edge weights", len(g.EdgeTo), len(g.EdgeWeight))
	}
	if g.EdgeOffsets[0] != 0 {
		return fmt.Errorf("graph offsets start at %d, want 0", g.EdgeOffsets[0])
	}
	if int(g.EdgeOffsets[nv]) != len(g.EdgeTo) {
		return fmt.Errorf("graph offsets end at %d but %d edges are stored", g.EdgeOffsets[nv], len(g.EdgeTo))
	}
	for v := 0; v < nv; v++ {
		if g.EdgeOffsets[v] > g.EdgeOffsets[v+1] {
			return fmt.Errorf("graph offsets decrease at vertex %d", v)
		}
	}
	for _, to := range g.EdgeTo {
		if to < 0 || int(to) >= nv {
			return fmt.Errorf("graph edge target %d out of range [0,%d)", to, nv)
		}
	}
	if err := checkFinite("graph edge weight", g.EdgeWeight); err != nil {
		return err
	}
	g.Neighbors = make([][]graph.Edge, nv)
	for v := 0; v < nv; v++ {
		lo, hi := g.EdgeOffsets[v], g.EdgeOffsets[v+1]
		if lo == hi {
			continue
		}
		es := make([]graph.Edge, hi-lo)
		for j := range es {
			es[j] = graph.Edge{To: g.EdgeTo[int(lo)+j], Weight: g.EdgeWeight[int(lo)+j]}
		}
		g.Neighbors[v] = es
	}
	a.graph = g
	if want := nv * corpus.NumTags; len(a.beliefs) != want {
		return fmt.Errorf("belief matrix has %d entries for %d vertices × %d tags", len(a.beliefs), nv, corpus.NumTags)
	}
	for i, v := range a.beliefs {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("belief[%d] = %g is outside [0, 1]", i, v)
		}
	}
	return nil
}

// checkFinite reports the first NaN or ±Inf entry of vs, naming it what[i].
func checkFinite(what string, vs []float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s[%d] = %g is not finite", what, i, v)
		}
	}
	return nil
}
