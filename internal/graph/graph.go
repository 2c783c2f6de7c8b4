// Package graph builds and represents the 3-gram similarity graph at the
// heart of GraphNER. Vertices are the unique 3-grams of a partially
// labelled corpus; each vertex is represented by a sparse vector of
// positive pointwise mutual information (PPMI) between the 3-gram and the
// feature instances observed at its occurrences; edges connect each vertex
// to its K most cosine-similar vertices (a directed k-NN graph, K=10 in
// the paper). Three vertex representations from the paper's Table III are
// supported: all BANNER features, lexical window lemmas, and features
// filtered by mutual information with the tagger's output.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
)

// Edge is a weighted directed edge to a vertex index.
type Edge struct {
	To     int32
	Weight float64
}

// Graph is the directed k-NN similarity graph over 3-gram vertices.
//
// The adjacency is held twice: Neighbors is the slice-of-slices view the
// construction code produces, and EdgeOffsets / EdgeTo / EdgeWeight
// mirror it in CSR (compressed sparse row) layout — three flat arrays
// with the out-edges of vertex v occupying the half-open index range
// [EdgeOffsets[v], EdgeOffsets[v+1]). The CSR view is what the
// propagation hot loop reads: it removes one pointer indirection and one
// slice header per vertex and keeps edge targets and weights contiguous.
// Build populates it; hand-assembled graphs get it lazily via EnsureCSR.
type Graph struct {
	Vertices  []corpus.NGram
	Index     map[corpus.NGram]int
	Neighbors [][]Edge // Neighbors[v] has at most K entries
	K         int

	// CSR mirror of Neighbors (see type comment). len(EdgeOffsets) is
	// NumVertices()+1 when built; edge order matches Neighbors exactly.
	EdgeOffsets []int32
	EdgeTo      []int32
	EdgeWeight  []float64
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// BuildCSR (re)derives the flat CSR adjacency from Neighbors. Call it
// after mutating Neighbors on a graph whose CSR view is already in use.
// Vertices beyond len(Neighbors) (possible on hand-assembled graphs) get
// empty edge ranges.
func (g *Graph) BuildCSR() {
	g.EdgeOffsets, g.EdgeTo, g.EdgeWeight = csrFromLists(g.Neighbors, g.csrRows())
	if assert.Enabled {
		assert.CSRMonotonic(g.EdgeOffsets, len(g.EdgeTo), "graph CSR")
	}
}

// EnsureCSR builds the CSR adjacency if it is absent or stale (offset
// table inconsistent with Neighbors). It returns the graph for chaining.
func (g *Graph) EnsureCSR() *Graph {
	rows := g.csrRows()
	if len(g.EdgeOffsets) != rows+1 || int(g.EdgeOffsets[rows]) != g.NumEdges() {
		g.BuildCSR()
	}
	return g
}

// csrRows is the row count of the CSR table: every vertex gets a row even
// when Neighbors is shorter than Vertices.
func (g *Graph) csrRows() int {
	rows := len(g.Neighbors)
	if len(g.Vertices) > rows {
		rows = len(g.Vertices)
	}
	return rows
}

// csrFromLists flattens slice-of-slices adjacency into CSR arrays,
// preserving edge order within each vertex. rows ≥ len(lists) pads the
// offset table with empty trailing ranges.
func csrFromLists(lists [][]Edge, rows int) (offsets, to []int32, weight []float64) {
	if rows < len(lists) {
		rows = len(lists)
	}
	total := 0
	for _, es := range lists {
		total += len(es)
	}
	offsets = make([]int32, rows+1)
	to = make([]int32, total)
	weight = make([]float64, total)
	pos := int32(0)
	for v, es := range lists {
		offsets[v] = pos
		for _, e := range es {
			to[pos] = e.To
			weight[pos] = e.Weight
			pos++
		}
	}
	for v := len(lists); v <= rows; v++ {
		offsets[v] = pos
	}
	return offsets, to, weight
}

// PatchCSR incrementally reconciles the CSR mirror with Neighbors after
// an in-place update that rewrote the rows listed in dirty (ascending
// vertex id) and possibly appended new vertices. Offsets are recomputed
// for every row — appends shift all downstream offsets, so that O(V) pass
// is unavoidable — but edge payloads of clean rows are block-copied from
// the old arrays in maximal contiguous runs rather than re-derived from
// the slice-of-slices view; only dirty rows are written element-wise. The
// result is exactly what BuildCSR would produce.
func (g *Graph) PatchCSR(dirty []int32) {
	if len(g.EdgeOffsets) == 0 {
		g.BuildCSR()
		return
	}
	oldOff, oldTo, oldW := g.EdgeOffsets, g.EdgeTo, g.EdgeWeight
	oldRows := len(oldOff) - 1
	rows := g.csrRows()
	offsets := make([]int32, rows+1)
	total := int32(0)
	for v := 0; v < rows; v++ {
		offsets[v] = total
		if v < len(g.Neighbors) {
			total += int32(len(g.Neighbors[v]))
		}
	}
	offsets[rows] = total
	to := make([]int32, total)
	weight := make([]float64, total)
	di := 0
	for v := 0; v < rows; {
		for di < len(dirty) && int(dirty[di]) < v {
			di++
		}
		isDirty := di < len(dirty) && int(dirty[di]) == v
		if isDirty || v >= oldRows {
			if v < len(g.Neighbors) {
				pos := offsets[v]
				for _, e := range g.Neighbors[v] {
					to[pos] = e.To
					weight[pos] = e.Weight
					pos++
				}
			}
			v++
			continue
		}
		// Extend a maximal run of clean pre-existing rows and copy its
		// edge payload in one block: clean rows are bitwise unchanged, and
		// within a run old and new layouts are both contiguous.
		run := v + 1
		for run < oldRows && (di >= len(dirty) || int(dirty[di]) != run) {
			run++
		}
		copy(to[offsets[v]:], oldTo[oldOff[v]:oldOff[run]])
		copy(weight[offsets[v]:], oldW[oldOff[v]:oldOff[run]])
		v = run
	}
	g.EdgeOffsets, g.EdgeTo, g.EdgeWeight = offsets, to, weight
	if assert.Enabled {
		assert.CSRMonotonic(g.EdgeOffsets, len(g.EdgeTo), "graph CSR patch")
	}
}

// CanonicalClone returns a structurally equal copy with vertices
// renumbered into ascending NGram order — the order Build derives from
// UniqueTrigrams — with edge targets remapped, each neighbour row
// re-sorted under the canonical ids, and the CSR mirror rebuilt. Two
// graphs over the same corpus that differ only in vertex numbering (a
// from-scratch Build versus an incrementally maintained Updater graph)
// canonicalize to equal values.
func (g *Graph) CanonicalClone() *Graph {
	n := len(g.Vertices)
	order := make([]int32, n) // new id -> old id
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return g.Vertices[order[a]] < g.Vertices[order[b]] })
	perm := make([]int32, n) // old id -> new id
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
	}
	ng := &Graph{
		Vertices:  make([]corpus.NGram, n),
		Index:     make(map[corpus.NGram]int, n),
		Neighbors: make([][]Edge, n),
		K:         g.K,
	}
	for newID, oldID := range order {
		v := g.Vertices[oldID]
		ng.Vertices[newID] = v
		ng.Index[v] = newID
		if int(oldID) >= len(g.Neighbors) || g.Neighbors[oldID] == nil {
			continue
		}
		row := g.Neighbors[oldID]
		es := make([]Edge, len(row))
		for j, e := range row {
			es[j] = Edge{To: perm[e.To], Weight: e.Weight}
		}
		sort.Slice(es, func(a, b int) bool {
			if es[a].Weight != es[b].Weight { // lint:checked exact tie-break mirrors topK's total order
				return es[a].Weight > es[b].Weight
			}
			return es[a].To < es[b].To
		})
		ng.Neighbors[newID] = es
	}
	ng.BuildCSR()
	return ng
}

// Equal reports strict structural equality: same vertices in the same
// order, same neighbour rows with bit-equal weights (nil and empty rows
// both mean "no edges"), and same CSR arrays. Compare CanonicalClones to
// test equality up to vertex numbering.
func (g *Graph) Equal(o *Graph) bool {
	if g.K != o.K || len(g.Vertices) != len(o.Vertices) {
		return false
	}
	for i, v := range g.Vertices {
		if o.Vertices[i] != v {
			return false
		}
	}
	if len(g.Neighbors) != len(o.Neighbors) {
		return false
	}
	for i, es := range g.Neighbors {
		os := o.Neighbors[i]
		if len(es) != len(os) {
			return false
		}
		for j, e := range es {
			if os[j].To != e.To || os[j].Weight != e.Weight { // lint:checked bit-equality is the contract under test
				return false
			}
		}
	}
	if len(g.EdgeOffsets) != len(o.EdgeOffsets) || len(g.EdgeTo) != len(o.EdgeTo) || len(g.EdgeWeight) != len(o.EdgeWeight) {
		return false
	}
	for i, v := range g.EdgeOffsets {
		if o.EdgeOffsets[i] != v {
			return false
		}
	}
	for i, v := range g.EdgeTo {
		if o.EdgeTo[i] != v {
			return false
		}
	}
	for i, v := range g.EdgeWeight {
		if o.EdgeWeight[i] != v { // lint:checked bit-equality is the contract under test
			return false
		}
	}
	return true
}

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.Neighbors {
		n += len(es)
	}
	return n
}

// Lookup returns the vertex index for a 3-gram, or -1.
func (g *Graph) Lookup(v corpus.NGram) int {
	if i, ok := g.Index[v]; ok {
		return i
	}
	return -1
}

// InfluenceStats holds the per-vertex influence measures of the paper's
// §III-D: Influencees(v) is the set of vertices that have v among their
// nearest neighbours, and Influence(v) is the sum of the weights of the
// edges arriving at v.
type InfluenceStats struct {
	Influencees []int     // |Influencees(v)| per vertex
	Influence   []float64 // Influence(v) per vertex
}

// Influences computes both influence measures for every vertex.
func (g *Graph) Influences() InfluenceStats {
	st := InfluenceStats{
		Influencees: make([]int, len(g.Vertices)),
		Influence:   make([]float64, len(g.Vertices)),
	}
	for _, es := range g.Neighbors {
		for _, e := range es {
			st.Influencees[e.To]++
			st.Influence[e.To] += e.Weight
		}
	}
	return st
}

// WeaklyConnected reports whether the graph is weakly connected (treating
// edges as undirected). The empty graph is vacuously connected.
func (g *Graph) WeaklyConnected() bool {
	n := len(g.Vertices)
	if n == 0 {
		return true
	}
	adj := make([][]int32, n)
	for v, es := range g.Neighbors {
		for _, e := range es {
			adj[v] = append(adj[v], e.To)
			adj[e.To] = append(adj[e.To], int32(v))
		}
	}
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// WriteTo serializes the graph in a line-oriented text format:
//
//	K <k>
//	V <count>
//	<ngram-escaped> then per line "E <to> <weight>" groups
//
// The byte count returned estimates the paper's §III-C memory-footprint
// measure (graph description file size).
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	fmt.Fprintf(bw, "K %d\nV %d\n", g.K, len(g.Vertices))
	for i, v := range g.Vertices {
		fmt.Fprintf(bw, "N %s\n", escape(string(v)))
		if i >= len(g.Neighbors) {
			continue // hand-assembled graphs may leave trailing rows empty
		}
		for _, e := range g.Neighbors[i] {
			// %g with default precision prints the fewest digits that
			// parse back to the identical float64, so the text holds each
			// weight exactly.
			fmt.Fprintf(bw, "E %d %g\n", e.To, e.Weight)
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// escape protects the NUL separators inside NGram keys for the text format.
func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\x00", `\0`)
}

// Histogram buckets non-negative values into log-spaced bins for the
// influence plots of Figure 3.
type Histogram struct {
	Edges  []float64 // len = len(Counts)+1
	Counts []int
}

// LogHistogram builds a histogram with log-spaced buckets between the
// minimum positive value and the maximum. Zero values land in the first
// bucket.
func LogHistogram(values []float64, buckets int) Histogram {
	if buckets <= 0 {
		buckets = 10
	}
	maxV := 0.0
	minPos := math.Inf(1)
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
		if v > 0 && v < minPos {
			minPos = v
		}
	}
	if maxV == 0 || math.IsInf(minPos, 1) {
		return Histogram{Edges: []float64{0, 1}, Counts: []int{len(values)}}
	}
	if minPos == maxV { // lint:checked exact degenerate-range check; any spread at all makes real buckets
		minPos = maxV / 2
	}
	h := Histogram{
		Edges:  make([]float64, buckets+1),
		Counts: make([]int, buckets),
	}
	lo, hi := math.Log(minPos), math.Log(maxV)
	for i := 0; i <= buckets; i++ {
		h.Edges[i] = math.Exp(lo + (hi-lo)*float64(i)/float64(buckets))
	}
	for _, v := range values {
		if v <= h.Edges[0] {
			h.Counts[0]++
			continue
		}
		idx := sort.SearchFloat64s(h.Edges, v) - 1
		if idx >= buckets {
			idx = buckets - 1
		}
		h.Counts[idx]++
	}
	return h
}

// String renders the histogram as aligned text rows.
func (h Histogram) String() string {
	var b strings.Builder
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Counts {
		bar := ""
		if maxC > 0 {
			bar = strings.Repeat("#", c*40/maxC)
		}
		fmt.Fprintf(&b, "[%10.4g, %10.4g) %8d %s\n", h.Edges[i], h.Edges[i+1], c, bar)
	}
	return b.String()
}
