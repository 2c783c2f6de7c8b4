package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/tokenize"
)

func makeCorpus(texts []string) *corpus.Corpus {
	c := corpus.New()
	for i, t := range texts {
		c.Sentences = append(c.Sentences, &corpus.Sentence{
			ID:     string(rune('A' + i)),
			Text:   t,
			Tokens: tokenize.Sentence(t),
		})
	}
	return c
}

func figure1Corpus() *corpus.Corpus {
	return makeCorpus([]string{
		"drug response was significant in wilms tumor - 1 positive patients .",
		"we observed the following mutations in wilms tumor - 1 .",
		"we did not observe this mutation in the patient tumor - 1 subclone .",
		"wilms tumor - 1 ( wt1 ) gene was highly expressed .",
		"we did not observe this mutation in the patient tumor - 2 subclone .",
	})
}

func TestBuildBasics(t *testing.T) {
	c := figure1Corpus()
	g, err := Build(c, BuilderConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != len(c.UniqueTrigrams()) {
		t.Errorf("vertices %d, want %d", g.NumVertices(), len(c.UniqueTrigrams()))
	}
	for vi, es := range g.Neighbors {
		if len(es) > 3 {
			t.Fatalf("vertex %d has %d neighbours, K=3", vi, len(es))
		}
		for _, e := range es {
			if e.Weight < -1e-9 || e.Weight > 1+1e-9 {
				t.Fatalf("cosine weight %g out of [0,1]", e.Weight)
			}
			if int(e.To) == vi {
				t.Fatal("self edge")
			}
		}
		// Descending weights.
		for i := 1; i < len(es); i++ {
			if es[i-1].Weight < es[i].Weight {
				t.Fatal("neighbors not sorted by weight")
			}
		}
	}
}

func TestSimilarContextsAreNeighbors(t *testing.T) {
	// The paper's Figure 1: [tumor - 1] should be similar to [tumor - 2]
	// (shared contexts) and to [wilms tumor -].
	c := figure1Corpus()
	g, err := Build(c, BuilderConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	v1 := g.Lookup(corpus.Trigram([]string{"tumor", "-", "1"}, 1))
	v2 := g.Lookup(corpus.Trigram([]string{"tumor", "-", "2"}, 1))
	if v1 < 0 || v2 < 0 {
		t.Fatal("expected vertices missing")
	}
	found := false
	for _, e := range g.Neighbors[v1] {
		if int(e.To) == v2 {
			found = true
		}
	}
	if !found {
		t.Errorf("[tumor - 1] neighbours do not include [tumor - 2]")
	}
}

// bruteKNN computes exact k-NN by dense pairwise cosine.
func bruteKNN(vecs []sparseVec, k int) [][]Edge {
	n := len(vecs)
	out := make([][]Edge, n)
	for i := 0; i < n; i++ {
		if vecs[i].norm == 0 {
			continue
		}
		var cands []Edge
		for j := 0; j < n; j++ {
			if i == j || vecs[j].norm == 0 {
				continue
			}
			var dot float64
			for a, id := range vecs[i].ids {
				dot += vecs[i].vals[a] * valueOf(&vecs[j], id)
			}
			if dot == 0 {
				continue // inverted-index search cannot see zero-overlap pairs
			}
			cands = append(cands, Edge{To: int32(j), Weight: dot / (vecs[i].norm * vecs[j].norm)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].Weight != cands[b].Weight {
				return cands[a].Weight > cands[b].Weight
			}
			return cands[a].To < cands[b].To
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		out[i] = cands
	}
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Random sparse vectors.
	n, nf := 60, 40
	vecs := make([]sparseVec, n)
	for i := range vecs {
		used := make(map[int32]bool)
		for j := 0; j < 5+rng.Intn(5); j++ {
			used[int32(rng.Intn(nf))] = true
		}
		ids := make([]int32, 0, len(used))
		for id := range used {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		vals := make([]float64, len(ids))
		var norm float64
		for j := range vals {
			vals[j] = rng.Float64() + 0.1
			norm += vals[j] * vals[j]
		}
		vecs[i] = sparseVec{ids: ids, vals: vals, norm: math.Sqrt(norm)}
	}
	got := knn(vecs, BuilderConfig{K: 4, Workers: 3})
	want := bruteKNN(vecs, 4)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("vertex %d: %d neighbours, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if math.Abs(got[i][j].Weight-want[i][j].Weight) > 1e-9 {
				t.Fatalf("vertex %d neighbour %d: weight %g, want %g",
					i, j, got[i][j].Weight, want[i][j].Weight)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(corpus.New(), BuilderConfig{}); err == nil {
		t.Error("want error for empty corpus")
	}
	c := figure1Corpus()
	if _, err := Build(c, BuilderConfig{Mode: MIFeatures}); err == nil {
		t.Error("want error for MI mode without tags")
	}
	if _, err := Build(c, BuilderConfig{Mode: MIFeatures, Tags: [][]corpus.Tag{nil}}); err == nil {
		t.Error("want error for tag row count mismatch")
	}
}

func TestLexicalMode(t *testing.T) {
	c := figure1Corpus()
	g, err := Build(c, BuilderConfig{K: 3, Mode: LexicalFeatures})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("no vertices")
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges in lexical mode")
	}
}

func TestMIMode(t *testing.T) {
	c := figure1Corpus()
	tags := make([][]corpus.Tag, len(c.Sentences))
	for i, s := range c.Sentences {
		tags[i] = make([]corpus.Tag, len(s.Tokens))
		for j := range tags[i] {
			tags[i][j] = corpus.O
		}
		// Tag "wilms tumor - 1" tokens as gene in sentences containing it.
		words := s.Words()
		for j := 0; j+3 < len(words); j++ {
			if words[j] == "wilms" && words[j+1] == "tumor" {
				tags[i][j] = corpus.B
				tags[i][j+1], tags[i][j+2], tags[i][j+3] = corpus.I, corpus.I, corpus.I
			}
		}
	}
	g, err := Build(c, BuilderConfig{K: 3, Mode: MIFeatures, MIThreshold: 0.001, Tags: tags})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("no vertices")
	}
	// A higher threshold keeps fewer features, possibly fewer edges.
	g2, err := Build(c, BuilderConfig{K: 3, Mode: MIFeatures, MIThreshold: 10, Tags: tags})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() > g.NumEdges() {
		t.Errorf("stricter MI threshold produced more edges (%d > %d)", g2.NumEdges(), g.NumEdges())
	}
}

func TestInfluences(t *testing.T) {
	g := &Graph{
		Vertices: []corpus.NGram{"a", "b", "c"},
		Neighbors: [][]Edge{
			{{To: 1, Weight: 0.5}, {To: 2, Weight: 0.25}},
			{{To: 2, Weight: 1.0}},
			{},
		},
		K: 2,
	}
	st := g.Influences()
	if st.Influencees[2] != 2 || st.Influencees[1] != 1 || st.Influencees[0] != 0 {
		t.Errorf("influencees = %v", st.Influencees)
	}
	if math.Abs(st.Influence[2]-1.25) > 1e-12 {
		t.Errorf("influence[2] = %g", st.Influence[2])
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestWeaklyConnected(t *testing.T) {
	g := &Graph{
		Vertices:  []corpus.NGram{"a", "b", "c"},
		Neighbors: [][]Edge{{{To: 1}}, {}, {}},
	}
	if g.WeaklyConnected() {
		t.Error("disconnected graph reported connected")
	}
	g.Neighbors[2] = []Edge{{To: 1}}
	if !g.WeaklyConnected() {
		t.Error("connected graph reported disconnected")
	}
	empty := &Graph{}
	if !empty.WeaklyConnected() {
		t.Error("empty graph should be vacuously connected")
	}
}

// TestWriteToFormat pins the text form WriteTo emits: the returned byte
// count is the bytes written (the graph-size statistic of the experiments
// reads it), the header carries K and the vertex count, every vertex has
// one N line with its NUL separators escaped, and every edge one E line.
func TestWriteToFormat(t *testing.T) {
	c := figure1Corpus()
	g, err := Build(c, BuilderConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, buffer has %d", n, buf.Len())
	}
	if bytes.IndexByte(buf.Bytes(), 0) >= 0 {
		t.Error("output holds a raw NUL; vertex keys must be escaped")
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := fmt.Sprintf("K %d", g.K); lines[0] != want {
		t.Errorf("first line %q, want %q", lines[0], want)
	}
	if want := fmt.Sprintf("V %d", g.NumVertices()); lines[1] != want {
		t.Errorf("second line %q, want %q", lines[1], want)
	}
	vertices, edges, wantEdges := 0, 0, 0
	for _, l := range lines[2:] {
		switch {
		case strings.HasPrefix(l, "N "):
			if want := "N " + escape(string(g.Vertices[vertices])); l != want {
				t.Errorf("vertex line %q, want %q", l, want)
			}
			vertices++
		case strings.HasPrefix(l, "E "):
			edges++
		default:
			t.Errorf("unrecognized line %q", l)
		}
	}
	for _, row := range g.Neighbors {
		wantEdges += len(row)
	}
	if vertices != g.NumVertices() || edges != wantEdges {
		t.Errorf("wrote %d vertex and %d edge lines, want %d and %d", vertices, edges, g.NumVertices(), wantEdges)
	}
}

// TestWriteToShortNeighbors: a hand-assembled graph may hold fewer
// neighbour rows than vertices; WriteTo must write every vertex without
// panicking and emit edges only for the rows present.
func TestWriteToShortNeighbors(t *testing.T) {
	h := &Graph{
		Vertices:  []corpus.NGram{"a\x00b\x00c", "b\x00c\x00d"},
		Index:     map[corpus.NGram]int{"a\x00b\x00c": 0, "b\x00c\x00d": 1},
		Neighbors: [][]Edge{{{To: 1, Weight: 0.5}}},
		K:         1,
	}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := "K 1\nV 2\nN a\\0b\\0c\nE 1 0.5\nN b\\0c\\0d\n"
	if buf.String() != want {
		t.Errorf("WriteTo wrote %q, want %q", buf.String(), want)
	}
}

func TestLogHistogram(t *testing.T) {
	vals := []float64{0, 0.1, 1, 10, 100, 100}
	h := LogHistogram(vals, 5)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(vals) {
		t.Errorf("histogram loses values: %d of %d", total, len(vals))
	}
	if len(h.Edges) != len(h.Counts)+1 {
		t.Error("edge count mismatch")
	}
	if h.String() == "" {
		t.Error("empty render")
	}
	// Degenerate all-zero input.
	h0 := LogHistogram([]float64{0, 0}, 4)
	if h0.Counts[0] != 2 {
		t.Errorf("zero histogram = %+v", h0)
	}
}

func TestMaxDFPruning(t *testing.T) {
	// With an aggressive MaxDF the graph must still build, possibly with
	// fewer edges.
	c := figure1Corpus()
	full, err := Build(c, BuilderConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Build(c, BuilderConfig{K: 3, MaxDF: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumEdges() > full.NumEdges() {
		t.Errorf("pruned graph has more edges (%d > %d)", pruned.NumEdges(), full.NumEdges())
	}
}

func BenchmarkBuildSmall(b *testing.B) {
	texts := make([]string, 0, 100)
	base := figure1Corpus()
	for i := 0; i < 20; i++ {
		for _, s := range base.Sentences {
			texts = append(texts, s.Text)
		}
	}
	c := makeCorpus(texts[:26]) // IDs limited by rune trick
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c, BuilderConfig{K: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
