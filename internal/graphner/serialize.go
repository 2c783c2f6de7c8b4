package graphner

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/tokenize"
)

// snapshot is the gob-encoded persistent form of a trained System. The
// training corpus travels with the model because GraphNER's transductive
// TEST procedure needs the labelled sentences at test time (posterior
// averaging over D_l ∪ D_u, graph construction, gold transitions).
// Function-valued and interface-valued configuration (the feature
// extractor and its distributional classers) is not serializable; Load
// takes the reconstructed extractor as an argument. Workers is likewise
// not persisted: it is a machine-local parallelism bound, not a model
// parameter — a snapshot trained on a 64-core box must not pin a 4-core
// box to 64 workers, so Load lets Config.defaults() re-derive it from
// GOMAXPROCS on the loading machine.
type snapshot struct {
	Alpha, Mu, Nu   float64
	Iterations      int
	K               int
	Mode            int
	MIThreshold     float64
	Order           int
	L2              float64
	CRFIterations   int
	MaxDF           int
	Shards          int // deprecated and unread; kept so the format is unchanged
	LossEvery       int
	TransitionPower float64
	GraphMode       int
	LSHBits         int
	LSHTables       int
	LSHMaxBucket    int
	LSHRerank       int
	LSHRefine       int
	LSHMultiProbe   bool
	LSHSeed         int64

	Model         *crf.Model
	AlphabetNames []string
	// Xref is persisted as a slice sorted by 3-gram rather than the map
	// the System holds: gob encodes maps in iteration order, which is
	// randomized, so a map field would make two saves of the same system
	// byte-different and defeat artifact checksums. The sorted slice makes
	// Save byte-deterministic.
	Xref  []xrefEntry
	Train []savedSentence
}

type xrefEntry struct {
	G corpus.NGram
	D []float64
}

type savedSentence struct {
	ID   string
	Text string
	Tags []corpus.Tag
}

// sortedXref flattens a reference-distribution map into a slice sorted by
// 3-gram, the canonical order shared by Save and the Artifact encoder.
func sortedXref(m map[corpus.NGram][]float64) []xrefEntry {
	out := make([]xrefEntry, 0, len(m))
	for g, d := range m {
		out = append(out, xrefEntry{G: g, D: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].G < out[j].G })
	return out
}

// xrefMap rebuilds the in-memory reference-distribution map from its
// serialized sorted-slice form.
func xrefMap(entries []xrefEntry) map[corpus.NGram][]float64 {
	m := make(map[corpus.NGram][]float64, len(entries))
	for _, e := range entries {
		m[e.G] = e.D
	}
	return m
}

// savedCorpus flattens a corpus into its serializable sentence list.
func savedCorpus(c *corpus.Corpus) []savedSentence {
	out := make([]savedSentence, 0, len(c.Sentences))
	for _, sent := range c.Sentences {
		out = append(out, savedSentence{ID: sent.ID, Text: sent.Text, Tags: sent.Tags})
	}
	return out
}

// restoreCorpus re-tokenizes a saved sentence list, validating that
// persisted tag sequences still align with the tokenization.
func restoreCorpus(saved []savedSentence) (*corpus.Corpus, error) {
	c := corpus.New()
	for _, sv := range saved {
		sent := &corpus.Sentence{ID: sv.ID, Text: sv.Text, Tokens: tokenize.Sentence(sv.Text), Tags: sv.Tags}
		if sv.Tags != nil && len(sv.Tags) != len(sent.Tokens) {
			return nil, fmt.Errorf("sentence %q has %d tags for %d tokens", sv.ID, len(sv.Tags), len(sent.Tokens))
		}
		c.Sentences = append(c.Sentences, sent)
	}
	return c, nil
}

// snapshotConfig extracts the serializable configuration fields. Workers
// and Extractor are intentionally machine-local (see the snapshot type
// comment) and stay zero here.
func (s *System) snapshotFields() snapshot {
	return snapshot{
		Alpha: s.cfg.Alpha, Mu: s.cfg.Mu, Nu: s.cfg.Nu,
		Iterations: s.cfg.Iterations, K: s.cfg.K,
		Mode: int(s.cfg.Mode), MIThreshold: s.cfg.MIThreshold,
		Order: int(s.cfg.Order), L2: s.cfg.L2,
		CRFIterations: s.cfg.CRFIterations, MaxDF: s.cfg.MaxDF,
		Shards: s.cfg.Shards, LossEvery: s.cfg.LossEvery,
		TransitionPower: s.cfg.TransitionPower,
		GraphMode:       int(s.cfg.GraphMode),
		LSHBits:         s.cfg.LSH.Bits, LSHTables: s.cfg.LSH.Tables,
		LSHMaxBucket: s.cfg.LSH.MaxBucket, LSHRerank: s.cfg.LSH.Rerank,
		LSHRefine: s.cfg.LSH.Refine, LSHMultiProbe: s.cfg.LSH.MultiProbe,
		LSHSeed: s.cfg.LSH.Seed,
	}
}

// configOf reconstructs a Config from persisted snapshot fields.
func (snap *snapshot) config(extractor *features.Extractor) Config {
	cfg := Config{
		Alpha: snap.Alpha, Mu: snap.Mu, Nu: snap.Nu,
		Iterations: snap.Iterations, K: snap.K,
		Mode: graph.FeatureMode(snap.Mode), MIThreshold: snap.MIThreshold,
		Order: crf.Order(snap.Order), L2: snap.L2,
		CRFIterations: snap.CRFIterations, MaxDF: snap.MaxDF,
		Shards: snap.Shards, LossEvery: snap.LossEvery,
		TransitionPower: snap.TransitionPower,
		GraphMode:       graph.GraphMode(snap.GraphMode),
		LSH: graph.LSHConfig{
			Bits: snap.LSHBits, Tables: snap.LSHTables,
			MaxBucket: snap.LSHMaxBucket, Rerank: snap.LSHRerank,
			Refine: snap.LSHRefine, MultiProbe: snap.LSHMultiProbe,
			Seed: snap.LSHSeed,
		},
		Extractor: extractor,
	}
	cfg.defaults()
	return cfg
}

// Save serializes the trained system (model, feature alphabet, reference
// distributions, hyper-parameters, and training corpus) to w. The output
// is byte-deterministic: two saves of the same system are identical, so
// content checksums over the stream are meaningful.
func (s *System) Save(w io.Writer) error {
	snap := s.snapshotFields()
	snap.Model = s.model
	snap.AlphabetNames = s.compiler.Alphabet.Names()
	snap.Xref = sortedXref(s.xref)
	snap.Train = savedCorpus(s.train)
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("graphner: save: %w", err)
	}
	return nil
}

// Load reconstructs a trained system from a Save stream. extractor must be
// configured identically to the one used at training time (including any
// distributional WordClasser — see brown.ReadFrom and word2vec.ReadFrom
// for persisting those); pass nil for the plain BANNER-style extractor.
func Load(r io.Reader, extractor *features.Extractor) (*System, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("graphner: load: %w", err)
	}
	if snap.Model == nil {
		return nil, fmt.Errorf("graphner: load: snapshot has no model")
	}
	if extractor == nil {
		extractor = features.NewExtractor(nil)
	}
	train, err := restoreCorpus(snap.Train)
	if err != nil {
		return nil, fmt.Errorf("graphner: load: %w", err)
	}
	comp := &crf.Compiler{
		Extractor: extractor,
		Alphabet:  features.NewAlphabetFromNames(snap.AlphabetNames),
	}
	return &System{
		cfg:      snap.config(extractor),
		compiler: comp,
		model:    snap.Model,
		train:    train,
		xref:     xrefMap(snap.Xref),
	}, nil
}
