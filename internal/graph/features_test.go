package graph

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/features"
	"repro/internal/tokenize"
)

// referenceEnumerator is the string feature enumeration the counting pass
// used before it moved to bytes: a fmt.Sprintf per lexical feature, one
// string per extractor feature, miKeep looked up by string.
func referenceEnumerator(cfg BuilderConfig, miKeep map[string]bool) func(words []string, i int, fn func(string)) {
	if cfg.Mode == LexicalFeatures {
		return func(words []string, i int, fn func(string)) {
			for d := -2; d <= 2; d++ {
				j := i + d
				if j < 0 || j >= len(words) {
					continue
				}
				fn(fmt.Sprintf("lem%+d=%s", d, tokenize.Lemma(words[j])))
			}
		}
	}
	return func(words []string, i int, fn func(string)) {
		for _, f := range cfg.Extractor.Position(words, i) {
			if miKeep != nil && !miKeep[f] {
				continue
			}
			fn(f)
		}
	}
}

// referenceMISelect is miSelect over feature strings.
func referenceMISelect(corp *corpus.Corpus, cfg BuilderConfig) map[string]bool {
	featTag := make(map[string]*[corpus.NumTags]float64)
	var tagCount [corpus.NumTags]float64
	var n float64
	for si, s := range corp.Sentences {
		words := s.Words()
		tags := cfg.Tags[si]
		for i := range words {
			if i >= len(tags) {
				break
			}
			t := tags[i]
			tagCount[t]++
			n++
			for _, f := range cfg.Extractor.Position(words, i) {
				c := featTag[f]
				if c == nil {
					c = new([corpus.NumTags]float64)
					featTag[f] = c
				}
				c[t]++
			}
		}
	}
	keep := make(map[string]bool)
	for f, c := range featTag {
		var cf float64
		for _, v := range c {
			cf += v
		}
		var mi float64
		for t := 0; t < corpus.NumTags; t++ {
			pt := tagCount[t] / n
			if pt == 0 {
				continue
			}
			if c[t] > 0 {
				p := c[t] / n
				mi += p * math.Log2(p/((cf/n)*pt))
			}
			if abs := tagCount[t] - c[t]; abs > 0 && n-cf > 0 {
				p := abs / n
				mi += p * math.Log2(p/(((n-cf)/n)*pt))
			}
		}
		if mi > cfg.MIThreshold {
			keep[f] = true
		}
	}
	return keep
}

// referenceCountFeatures is countFeatures over feature strings, with the
// alphabet interned through Lookup(string).
func referenceCountFeatures(corp *corpus.Corpus, cfg BuilderConfig, index map[corpus.NGram]int, nVerts int) ([]map[int32]float64, []float64, *Stats) {
	counts := make([]map[int32]float64, nVerts)
	for i := range counts {
		counts[i] = make(map[int32]float64)
	}
	vertTotal := make([]float64, nVerts)
	st := cfg.Stats
	fresh := st == nil
	if fresh {
		st = &Stats{alphabet: features.NewAlphabet(), mode: cfg.Mode}
		if cfg.Mode == MIFeatures {
			st.miKeep = referenceMISelect(corp, cfg)
		}
	}
	enum := referenceEnumerator(cfg, st.miKeep)
	for _, s := range corp.Sentences {
		words := s.Words()
		for i := range words {
			vi := index[corpus.Trigram(words, i)]
			enum(words, i, func(f string) {
				id := st.alphabet.Lookup(f)
				if id < 0 {
					return
				}
				counts[vi][int32(id)]++
				if fresh {
					for id >= len(st.featTotal) {
						st.featTotal = append(st.featTotal, 0)
					}
					st.featTotal[id]++
					st.grand++
				}
				vertTotal[vi]++
			})
		}
	}
	if fresh {
		st.alphabet.Freeze()
	}
	return counts, vertTotal, st
}

// TestBuildFeatureModesMatchReference pins the byte counting pass to the
// string enumeration in every feature mode (and for an extractor with a
// wider window and a lexicon classer): the alphabet in id order, the
// per-feature and grand totals, the selected MI features, every vertex's
// counts, and the graph's edges — both for a fresh Build and for a corpus
// counted under the frozen snapshot of another.
func TestBuildFeatureModesMatchReference(t *testing.T) {
	scfg := synth.DefaultConfig(synth.BC2GM, 17)
	scfg.Sentences = 300
	all := synth.NewGenerator(scfg).Generate()
	base, more := corpus.New(), corpus.New()
	base.Sentences, more.Sentences = all.Sentences[:220], all.Sentences[220:]
	tags := make([][]corpus.Tag, len(base.Sentences))
	for i, s := range base.Sentences {
		tags[i] = s.Tags
	}
	lex := features.NewLexiconClasser([]string{"wt1", "tumor necrosis factor", "p53"})
	configs := []struct {
		name string
		cfg  BuilderConfig
	}{
		{"all", BuilderConfig{Mode: AllFeatures}},
		{"all/window3+lexicon", BuilderConfig{Mode: AllFeatures, Extractor: &features.Extractor{Classer: lex, WindowSize: 3, CharNGrams: true}}},
		{"lexical", BuilderConfig{Mode: LexicalFeatures}},
		{"mi", BuilderConfig{Mode: MIFeatures, MIThreshold: 0.0005, Tags: tags}},
	}
	for _, tc := range configs {
		cfg := tc.cfg
		cfg.K, cfg.Workers = 6, 2
		if cfg.Extractor == nil {
			cfg.Extractor = features.NewExtractor(nil)
		}
		g, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, refCounts, refTotal := assertCountsMatchReference(t, tc.name, base, cfg)
		if tc.cfg.Mode == MIFeatures && len(st.miKeep) == 0 {
			t.Fatalf("%s: no feature passes the MI threshold", tc.name)
		}
		refVecs := make([]sparseVec, len(refCounts))
		for vi := range refCounts {
			refVecs[vi] = referencePPMIVec(refCounts[vi], refTotal[vi], st)
		}
		assertRowsIdentical(t, tc.name+" edges", g.Neighbors, knnReference(refVecs, cfg))

		frozen := cfg
		frozen.Stats, frozen.Tags = st, nil
		assertCountsMatchReference(t, tc.name+" frozen", more, frozen)
	}
}

// referencePPMIVec is the PPMI transform over a count map, as it was
// before the counting pass produced sorted runs.
func referencePPMIVec(m map[int32]float64, total float64, st *Stats) sparseVec {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	vals := make([]float64, 0, len(ids))
	keep := ids[:0]
	var norm float64
	for _, id := range ids {
		pmi := math.Log(m[id] * st.grand / (total * st.featTotal[id]))
		if pmi <= 0 {
			continue
		}
		keep = append(keep, id)
		vals = append(vals, pmi)
		norm += pmi * pmi
	}
	return sparseVec{ids: keep, vals: vals, norm: math.Sqrt(norm)}
}

// assertCountsMatchReference compares countFeatures with
// referenceCountFeatures on corp, vertex by vertex and snapshot against
// snapshot, and returns the (identical) statistics with the reference
// counts.
func assertCountsMatchReference(t *testing.T, tag string, corp *corpus.Corpus, cfg BuilderConfig) (*Stats, []map[int32]float64, []float64) {
	t.Helper()
	verts := corp.UniqueTrigrams()
	index := make(map[corpus.NGram]int, len(verts))
	for i, v := range verts {
		index[v] = i
	}
	runs, total, st := countFeatures(corp, cfg, index, len(verts))
	refCounts, refTotal, refSt := referenceCountFeatures(corp, cfg, index, len(verts))
	assertStatsIdentical(t, tag, st, refSt)
	assertRunsMatchCounts(t, tag, verts, runs, total, refCounts, refTotal, refSt)
	return refSt, refCounts, refTotal
}

// assertRunsMatchCounts checks per-vertex runs and totals against count
// maps: the same totals bit for bit, and runs in strictly ascending
// feature order holding exactly the map's counts.
func assertRunsMatchCounts(t *testing.T, tag string, verts []corpus.NGram, runs [][]featRun, total []float64, refCounts []map[int32]float64, refTotal []float64, st *Stats) {
	t.Helper()
	for vi := range verts {
		if math.Float64bits(total[vi]) != math.Float64bits(refTotal[vi]) || len(runs[vi]) != len(refCounts[vi]) {
			t.Fatalf("%s: vertex %q: total %v over %d features, reference %v over %d",
				tag, verts[vi], total[vi], len(runs[vi]), refTotal[vi], len(refCounts[vi]))
		}
		for k, r := range runs[vi] {
			if k > 0 && runs[vi][k-1].id >= r.id {
				t.Fatalf("%s: vertex %q: runs not in ascending feature order at %d", tag, verts[vi], k)
			}
			if c := refCounts[vi][r.id]; float64(r.n) != c {
				t.Fatalf("%s: vertex %q feature %q: count %v, reference %v",
					tag, verts[vi], st.alphabet.Name(int(r.id)), r.n, c)
			}
		}
	}
}

// assertStatsIdentical compares two corpus statistics snapshots: the
// alphabet in id order, featTotal and grand bit for bit, and the MI set.
func assertStatsIdentical(t *testing.T, tag string, got, want *Stats) {
	t.Helper()
	gn, wn := got.alphabet.Names(), want.alphabet.Names()
	if len(gn) != len(wn) {
		t.Fatalf("%s: alphabet has %d features, reference %d", tag, len(gn), len(wn))
	}
	for id := range wn {
		if gn[id] != wn[id] {
			t.Fatalf("%s: feature id %d is %q, reference %q", tag, id, gn[id], wn[id])
		}
	}
	if len(got.featTotal) != len(want.featTotal) {
		t.Fatalf("%s: featTotal has %d entries, reference %d", tag, len(got.featTotal), len(want.featTotal))
	}
	for id := range want.featTotal {
		if math.Float64bits(got.featTotal[id]) != math.Float64bits(want.featTotal[id]) {
			t.Fatalf("%s: featTotal[%d] = %v, reference %v", tag, id, got.featTotal[id], want.featTotal[id])
		}
	}
	if math.Float64bits(got.grand) != math.Float64bits(want.grand) {
		t.Fatalf("%s: grand = %v, reference %v", tag, got.grand, want.grand)
	}
	if len(got.miKeep) != len(want.miKeep) {
		t.Fatalf("%s: %d MI features, reference %d", tag, len(got.miKeep), len(want.miKeep))
	}
	for f := range want.miKeep {
		if !got.miKeep[f] {
			t.Fatalf("%s: MI feature %q missing", tag, f)
		}
	}
}
