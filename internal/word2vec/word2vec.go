// Package word2vec implements skip-gram word embeddings with negative
// sampling (Mikolov et al. 2013) and a k-means quantizer over the learned
// vectors. BANNER-ChemDNER uses word2vec-derived word classes as CRF
// features; this package supplies the equivalent "w2v=<cluster>" features
// through the features.WordClasser interface, and cosine-similarity
// neighbour queries for inspection.
package word2vec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// Config controls training. Zero values select defaults.
type Config struct {
	Dim       int     // embedding dimensionality (default 32)
	Window    int     // max context offset (default 5)
	Negatives int     // negative samples per positive (default 5)
	Epochs    int     // passes over the corpus (default 3)
	MinCount  int     // drop words rarer than this (default 2)
	Rate      float64 // initial learning rate (default 0.025)
	Seed      int64   // RNG seed (default 1)
	Clusters  int     // k-means clusters for Classes (default 32)
}

func (c *Config) defaults() {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.Negatives <= 0 {
		c.Negatives = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	if c.Rate <= 0 {
		c.Rate = 0.025
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clusters <= 0 {
		c.Clusters = 32
	}
}

// Model holds trained embeddings and the k-means assignment per word.
type Model struct {
	dim     int
	words   []string
	index   map[string]int
	vecs    []float64 // row-major words×dim (input vectors)
	cluster []int     // k-means cluster per word
}

// Train learns embeddings from tokenized sentences.
func Train(sentences [][]string, cfg Config) (*Model, error) {
	cfg.defaults()

	counts := make(map[string]int)
	total := 0
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
			total++
		}
	}
	var words []string
	for w, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("word2vec: empty vocabulary (min count %d)", cfg.MinCount)
	}
	sort.Strings(words) // deterministic ids
	index := make(map[string]int, len(words))
	for i, w := range words {
		index[w] = i
	}
	V, D := len(words), cfg.Dim

	rng := rand.New(rand.NewSource(cfg.Seed))

	// Negative sampling table: unigram^(3/4) distribution.
	const tableSize = 1 << 17
	table := make([]int32, tableSize)
	var z float64
	pows := make([]float64, V)
	for i, w := range words {
		pows[i] = math.Pow(float64(counts[w]), 0.75)
		z += pows[i]
	}
	idx, cum := 0, pows[0]/z
	for i := range table {
		if t := float64(i) / tableSize; t > cum && idx < V-1 {
			idx++
			cum += pows[idx] / z
		}
		table[i] = int32(idx)
	}

	// Parameters: input vectors (the embeddings) and output vectors.
	in := make([]float64, V*D)
	out := make([]float64, V*D)
	for i := range in {
		in[i] = (rng.Float64() - 0.5) / float64(D)
	}

	// Compile sentences to ids once.
	compiled := make([][]int32, 0, len(sentences))
	for _, s := range sentences {
		ids := make([]int32, 0, len(s))
		for _, w := range s {
			if id, ok := index[w]; ok {
				ids = append(ids, int32(id))
			}
		}
		if len(ids) > 1 {
			compiled = append(compiled, ids)
		}
	}
	if len(compiled) == 0 {
		return nil, fmt.Errorf("word2vec: no trainable sentences")
	}

	steps := 0
	totalSteps := cfg.Epochs * total
	grad := make([]float64, D)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, sent := range compiled {
			for pos, center := range sent {
				rate := cfg.Rate * (1 - float64(steps)/float64(totalSteps+1))
				if rate < cfg.Rate*1e-4 {
					rate = cfg.Rate * 1e-4
				}
				steps++
				win := 1 + rng.Intn(cfg.Window)
				for off := -win; off <= win; off++ {
					cp := pos + off
					if off == 0 || cp < 0 || cp >= len(sent) {
						continue
					}
					ctx := sent[cp]
					ci := int(center) * D
					for d := range grad {
						grad[d] = 0
					}
					// One positive and cfg.Negatives negative updates.
					for k := 0; k <= cfg.Negatives; k++ {
						var target int
						var label float64
						if k == 0 {
							target, label = int(ctx), 1
						} else {
							target = int(table[rng.Intn(tableSize)])
							if target == int(ctx) {
								continue
							}
							label = 0
						}
						ti := target * D
						var dot float64
						for d := 0; d < D; d++ {
							dot += in[ci+d] * out[ti+d]
						}
						g := (label - sigmoid(dot)) * rate
						for d := 0; d < D; d++ {
							grad[d] += g * out[ti+d]
							out[ti+d] += g * in[ci+d]
						}
					}
					for d := 0; d < D; d++ {
						in[ci+d] += grad[d]
					}
				}
			}
		}
	}

	m := &Model{dim: D, words: words, index: index, vecs: in}
	m.cluster = kmeans(in, V, D, cfg.Clusters, rng)
	return m, nil
}

func sigmoid(x float64) float64 {
	switch {
	case x > 30:
		return 1
	case x < -30:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// kmeans clusters V row vectors of dimension D into k groups (k-means++
// seeding, 20 Lloyd iterations) and returns the assignment.
func kmeans(vecs []float64, V, D, k int, rng *rand.Rand) []int {
	if k > V {
		k = V
	}
	assign := make([]int, V)
	if k <= 1 {
		return assign
	}
	row := func(i int) []float64 { return vecs[i*D : (i+1)*D] }

	// k-means++ seeding.
	centers := make([]float64, k*D)
	copy(centers[:D], row(rng.Intn(V)))
	minDist := make([]float64, V)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for c := 1; c < k; c++ {
		var sum float64
		for i := 0; i < V; i++ {
			if d := sqDist(row(i), centers[(c-1)*D:c*D]); d < minDist[i] {
				minDist[i] = d
			}
			sum += minDist[i]
		}
		target := rng.Float64() * sum
		pick := V - 1
		var acc float64
		for i := 0; i < V; i++ {
			acc += minDist[i]
			if acc >= target {
				pick = i
				break
			}
		}
		copy(centers[c*D:(c+1)*D], row(pick))
	}

	sizes := make([]int, k)
	for iter := 0; iter < 20; iter++ {
		changed := false
		for i := 0; i < V; i++ {
			best, bd := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := sqDist(row(i), centers[c*D:(c+1)*D]); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for i := range centers {
			centers[i] = 0
		}
		for i := range sizes {
			sizes[i] = 0
		}
		for i := 0; i < V; i++ {
			c := assign[i]
			sizes[c]++
			r := row(i)
			for d := 0; d < D; d++ {
				centers[c*D+d] += r[d]
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] > 0 {
				for d := 0; d < D; d++ {
					centers[c*D+d] /= float64(sizes[c])
				}
			}
		}
	}
	return assign
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Vector returns the embedding for word, or nil if unknown. The returned
// slice aliases model memory; callers must not modify it.
func (m *Model) Vector(word string) []float64 {
	i, ok := m.index[word]
	if !ok {
		return nil
	}
	return m.vecs[i*m.dim : (i+1)*m.dim]
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the number of embedded words.
func (m *Model) VocabSize() int { return len(m.words) }

// Classes implements features.WordClasser: a single k-means cluster
// identity feature per known word.
func (m *Model) Classes(word string) []string {
	i, ok := m.index[word]
	if !ok {
		return nil
	}
	return []string{"w2v=" + strconv.Itoa(m.cluster[i])}
}

// Neighbor is a cosine-similarity match.
type Neighbor struct {
	Word string
	Sim  float64
}

// Neighbors returns the n most cosine-similar words to word, excluding the
// word itself. It returns nil for unknown words.
func (m *Model) Neighbors(word string, n int) []Neighbor {
	qi, ok := m.index[word]
	if !ok {
		return nil
	}
	q := m.vecs[qi*m.dim : (qi+1)*m.dim]
	qn := math.Sqrt(dot(q, q))
	if qn == 0 {
		return nil
	}
	out := make([]Neighbor, 0, len(m.words)-1)
	for i, w := range m.words {
		if i == qi {
			continue
		}
		v := m.vecs[i*m.dim : (i+1)*m.dim]
		vn := math.Sqrt(dot(v, v))
		if vn == 0 {
			continue
		}
		out = append(out, Neighbor{Word: w, Sim: dot(q, v) / (qn * vn)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim { // lint:checked exact tie-break keeps neighbor order deterministic
			return out[i].Sim > out[j].Sim
		}
		return out[i].Word < out[j].Word
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
