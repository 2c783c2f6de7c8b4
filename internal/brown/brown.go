// Package brown implements Brown clustering (Brown et al. 1992): a
// hierarchical agglomerative clustering of words that greedily merges the
// pair of clusters whose union costs the least average mutual information
// between adjacent cluster bigrams. The resulting binary merge tree assigns
// every clustered word a bit path; prefixes of the path are the word-class
// features that BANNER-ChemDNER feeds its CRF, and that this repository's
// ChemDNER-style extractor consumes through the features.WordClasser
// interface.
//
// The implementation follows the classic "window" strategy: the most
// frequent maxWords words are introduced in frequency order into a working
// set of at most numClusters+1 active clusters; each introduction above the
// limit triggers the cheapest merge. A final phase merges the remaining
// active clusters down to a single root. Candidate merge costs are
// evaluated in O(C) from cluster unigram/bigram tables, giving O(V·C³)
// total work, which is ample for corpus vocabularies at the scale of the
// GraphNER experiments.
package brown

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Config controls clustering.
type Config struct {
	// NumClusters is the size of the active window C (default 64).
	NumClusters int
	// MaxWords caps the vocabulary, keeping the most frequent words
	// (default 2000). Words below the cap get no cluster.
	MaxWords int
	// MinCount drops words rarer than this (default 2).
	MinCount int
}

func (c *Config) defaults() {
	if c.NumClusters <= 0 {
		c.NumClusters = 64
	}
	if c.MaxWords <= 0 {
		c.MaxWords = 2000
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
}

// Clustering is the result: a bit path per clustered word.
type Clustering struct {
	paths map[string]string
}

// Path returns the full bit path for word, or "" if the word was not
// clustered.
func (c *Clustering) Path(word string) string { return c.paths[word] }

// Len returns the number of clustered words.
func (c *Clustering) Len() int { return len(c.paths) }

// Classes implements features.WordClasser: it emits the paper-standard
// bit-path prefix features at lengths 4, 6, 10 and 20 (shorter paths are
// emitted whole once).
func (c *Clustering) Classes(word string) []string {
	p := c.paths[word]
	if p == "" {
		return nil
	}
	var out []string
	prev := ""
	for _, n := range [...]int{4, 6, 10, 20} {
		pre := p
		if len(p) > n {
			pre = p[:n]
		}
		if pre == prev {
			continue
		}
		prev = pre
		out = append(out, "brown"+strconv.Itoa(n)+"="+pre)
	}
	return out
}

// Cluster learns a Brown clustering from tokenized sentences.
func Cluster(sentences [][]string, cfg Config) (*Clustering, error) {
	cfg.defaults()

	// Vocabulary, ordered by frequency.
	counts := make(map[string]int)
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
	}
	type wc struct {
		w string
		c int
	}
	vocab := make([]wc, 0, len(counts))
	for w, c := range counts {
		if c >= cfg.MinCount {
			vocab = append(vocab, wc{w, c})
		}
	}
	if len(vocab) == 0 {
		return nil, fmt.Errorf("brown: empty vocabulary (min count %d)", cfg.MinCount)
	}
	sort.Slice(vocab, func(i, j int) bool {
		if vocab[i].c != vocab[j].c {
			return vocab[i].c > vocab[j].c
		}
		return vocab[i].w < vocab[j].w
	})
	if len(vocab) > cfg.MaxWords {
		vocab = vocab[:cfg.MaxWords]
	}
	wordID := make(map[string]int, len(vocab))
	for i, v := range vocab {
		wordID[v.w] = i
	}
	V := len(vocab)

	// Word-level bigram counts over in-vocabulary adjacent pairs.
	uni := make([]float64, V)
	big := make(map[[2]int]float64)
	var total float64
	for _, s := range sentences {
		prev := -1
		for _, w := range s {
			id, ok := wordID[w]
			if !ok {
				prev = -1
				continue
			}
			uni[id]++
			total++
			if prev >= 0 {
				big[[2]int{prev, id}]++
			}
			prev = id
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("brown: no in-vocabulary tokens")
	}

	w := &workspace{
		cfg:    cfg,
		uni:    uni,
		big:    big,
		vocab:  make([]string, V),
		parent: make(map[int]merge),
	}
	for i, v := range vocab {
		w.vocab[i] = v.w
	}
	w.run()

	return &Clustering{paths: w.paths()}, nil
}

// merge records one agglomeration: node was formed from left and right.
type merge struct{ left, right int }

// workspace carries the mutable clustering state.
type workspace struct {
	cfg   Config
	uni   []float64
	big   map[[2]int]float64
	vocab []string

	// Active clusters. active[i] is a tree node id; clusterUni and
	// clusterBig are unigram and directed bigram counts between active
	// clusters, indexed by position in active.
	active     []int
	clusterUni []float64
	clusterBig [][]float64

	// Merge tree over node ids. Leaves are word ids 0..V-1; internal nodes
	// get ids V, V+1, ...
	parent   map[int]merge
	nextNode int

	// members maps active position -> word ids contained.
	members [][]int
}

func (w *workspace) run() {
	V := len(w.vocab)
	w.nextNode = V
	C := w.cfg.NumClusters

	introduce := func(wordID int) {
		pos := len(w.active)
		w.active = append(w.active, wordID)
		w.members = append(w.members, []int{wordID})
		w.clusterUni = append(w.clusterUni, w.uni[wordID])
		// Extend bigram matrix.
		for i := range w.clusterBig {
			w.clusterBig[i] = append(w.clusterBig[i], 0)
		}
		w.clusterBig = append(w.clusterBig, make([]float64, pos+1))
		// Fill counts between the new cluster and all active clusters.
		for i := 0; i <= pos; i++ {
			var toNew, fromNew float64
			for _, a := range w.members[i] {
				toNew += w.big[[2]int{a, wordID}]
				fromNew += w.big[[2]int{wordID, a}]
			}
			w.clusterBig[i][pos] = toNew
			w.clusterBig[pos][i] = fromNew
		}
		// Self-bigram double counted in the loop when i == pos: toNew and
		// fromNew are the same cell; fix it to the single value.
		w.clusterBig[pos][pos] = w.big[[2]int{wordID, wordID}]
	}

	for i := 0; i < V; i++ {
		introduce(i)
		if len(w.active) > C {
			w.mergeBestPair()
		}
	}
	// Final phase: merge the window down to one root.
	for len(w.active) > 1 {
		w.mergeBestPair()
	}
}

// totals returns the grand totals of the cluster bigram and unigram
// tables; both are invariant under merging.
func (w *workspace) totals() (totalBig, totalUni float64) {
	for i := range w.clusterBig {
		for _, c := range w.clusterBig[i] {
			totalBig += c
		}
	}
	for _, u := range w.clusterUni {
		totalUni += u
	}
	return totalBig, totalUni
}

// qTerm is one cell's contribution to the average mutual information:
// p(i,j)·log(p(i,j)/(p(i)p(j))). Zero-count cells contribute 0.
func qTerm(cBig, uniL, uniR, totalBig, totalUni float64) float64 {
	if cBig <= 0 || uniL <= 0 || uniR <= 0 {
		return 0
	}
	p := cBig / totalBig
	return p * math.Log(p*totalUni*totalUni/(uniL*uniR))
}

// mergeBestPair finds the pair of active clusters whose merge loses the
// least AMI and merges it. Candidate deltas are evaluated in O(C) from the
// count tables, giving O(C³) per merge step.
func (w *workspace) mergeBestPair() {
	n := len(w.active)
	totalBig, totalUni := w.totals()
	if totalBig == 0 {
		// Degenerate corpus with no bigrams: merge arbitrarily.
		w.applyMerge(0, 1)
		return
	}

	// Precompute q cells and row/column sums.
	q := make([][]float64, n)
	rowq := make([]float64, n)
	colq := make([]float64, n)
	for i := 0; i < n; i++ {
		q[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			q[i][j] = qTerm(w.clusterBig[i][j], w.clusterUni[i], w.clusterUni[j], totalBig, totalUni)
			rowq[i] += q[i][j]
			colq[j] += q[i][j]
		}
	}

	bestA, bestB := 0, 1
	best := math.Inf(-1)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// AMI lost: every term with a or b as a coordinate.
			lost := rowq[a] + rowq[b] + colq[a] + colq[b] -
				q[a][a] - q[a][b] - q[b][a] - q[b][b]
			// AMI gained: terms of the merged cluster c = a∪b.
			uc := w.clusterUni[a] + w.clusterUni[b]
			gained := qTerm(
				w.clusterBig[a][a]+w.clusterBig[a][b]+w.clusterBig[b][a]+w.clusterBig[b][b],
				uc, uc, totalBig, totalUni)
			for j := 0; j < n; j++ {
				if j == a || j == b {
					continue
				}
				gained += qTerm(w.clusterBig[a][j]+w.clusterBig[b][j], uc, w.clusterUni[j], totalBig, totalUni)
				gained += qTerm(w.clusterBig[j][a]+w.clusterBig[j][b], w.clusterUni[j], uc, totalBig, totalUni)
			}
			if delta := gained - lost; delta > best {
				best, bestA, bestB = delta, a, b
			}
		}
	}
	w.applyMerge(bestA, bestB)
}

// applyMerge merges active positions a and b (a < b) into a.
func (w *workspace) applyMerge(a, b int) {
	node := w.nextNode
	w.nextNode++
	w.parent[node] = merge{left: w.active[a], right: w.active[b]}
	w.active[a] = node
	w.members[a] = append(w.members[a], w.members[b]...)
	w.clusterUni[a] += w.clusterUni[b]
	n := len(w.active)
	for i := 0; i < n; i++ {
		w.clusterBig[i][a] += w.clusterBig[i][b]
	}
	for j := 0; j < n; j++ {
		w.clusterBig[a][j] += w.clusterBig[b][j]
	}
	// The b row/col were folded into a, including the (b,b) cell which
	// passed through (b,a) and (a,b); remove position b.
	w.active = append(w.active[:b], w.active[b+1:]...)
	w.members = append(w.members[:b], w.members[b+1:]...)
	w.clusterUni = append(w.clusterUni[:b], w.clusterUni[b+1:]...)
	w.clusterBig = append(w.clusterBig[:b], w.clusterBig[b+1:]...)
	for i := range w.clusterBig {
		w.clusterBig[i] = append(w.clusterBig[i][:b], w.clusterBig[i][b+1:]...)
	}
}

// paths walks the merge tree from the root, assigning "0" to left children
// and "1" to right children.
func (w *workspace) paths() map[string]string {
	out := make(map[string]string, len(w.vocab))
	if len(w.active) == 0 {
		return out
	}
	root := w.active[0]
	var walk func(node int, path string)
	walk = func(node int, path string) {
		if m, ok := w.parent[node]; ok {
			walk(m.left, path+"0")
			walk(m.right, path+"1")
			return
		}
		// Leaf: node is a word id.
		if path == "" {
			path = "0" // degenerate single-word vocabulary
		}
		out[w.vocab[node]] = path
	}
	walk(root, "")
	return out
}
