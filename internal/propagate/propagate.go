// Package propagate implements GraphNER's iterative graph propagation
// (Equation 2 of the paper): label distributions attached to 3-gram
// vertices are pushed toward (a) their reference distributions when the
// vertex occurs in labelled data, (b) the distributions of their graph
// neighbours weighted by edge similarity (coefficient μ), and (c) the
// uniform distribution (coefficient ν), by iterating the closed-form
// coordinate update that zeroes the gradient of the loss in Equation 1.
//
// The hot path is allocation-free: beliefs live in one flat row-major
// matrix (n × corpus.NumTags), the adjacency is walked in the graph's CSR
// layout (graph.Graph.EdgeOffsets / EdgeTo / EdgeWeight), and the two
// sweep buffers ping-pong instead of being copied. The slice-of-rows Run
// entry point is a thin adapter over RunFlat kept for existing callers.
package propagate

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/graph"
)

// Config carries the propagation hyper-parameters of the paper's Table IV.
type Config struct {
	// Mu weights the neighbour-smoothness term (paper: 1e-6).
	Mu float64
	// Nu weights the uniform-prior term (paper: 1e-6 or 1e-4).
	Nu float64
	// Iterations is the fixed number of sweeps (paper: 2 or 3).
	Iterations int
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// LossEvery controls how often the Equation-1 objective is evaluated.
	// The loss is diagnostic — no control flow reads it — but costs a full
	// pass over the edges, comparable to a sweep itself. 0 (the default)
	// keeps the legacy schedule: before the first sweep and after every
	// sweep, bit for bit. A negative value skips the loss entirely
	// (Result.Loss stays nil). N > 0 evaluates before the first sweep,
	// after every Nth sweep, and after the final sweep.
	LossEvery int
}

// Result reports what propagation did.
type Result struct {
	// Loss holds the Equation-1 objective at the evaluation points
	// Config.LossEvery selects — with the default schedule, before the
	// first sweep and after every sweep (length Iterations+1).
	Loss []float64
	// MaxDelta is the largest per-entry change of the final sweep.
	MaxDelta float64
}

// lossWanted reports whether the loss schedule evaluates the objective
// after `done` completed sweeps (done == 0 is the pre-sweep evaluation);
// final marks the last sweep of the run, which N-periodic schedules
// always record.
func (cfg Config) lossWanted(done int, final bool) bool {
	switch {
	case cfg.LossEvery < 0:
		return false
	case cfg.LossEvery == 0:
		return true
	default:
		return final || done%cfg.LossEvery == 0
	}
}

// adjacency is a CSR view of the propagation graph: the out-edges of
// vertex v are to[off[v]:off[v+1]] with weights w over the same range.
type adjacency struct {
	off []int32
	to  []int32
	w   []float64
}

// adjacencyOf returns the CSR adjacency of the directed k-NN graph to
// propagate over. It never mutates g (so concurrent Runs over a shared
// graph stay race-free): graphs built by graph.Build or graph.ReadFrom
// already carry CSR arrays; hand-assembled graphs get a local flattening.
func adjacencyOf(g *graph.Graph, n int) adjacency {
	if len(g.EdgeOffsets) == n+1 && int(g.EdgeOffsets[n]) == len(g.EdgeTo) {
		return adjacency{off: g.EdgeOffsets, to: g.EdgeTo, w: g.EdgeWeight}
	}
	return csrOfLists(g.Neighbors, n)
}

// checkInputs is the argument check Run and RunFlat share,
// run before anything is mutated. n is the vertex count and xLen the
// number of belief entries the caller holds: len(X) for the flat entry
// points, len(X)·NumTags for Run, whose rows are passed too so that
// every non-nil one is checked for width. Every labelled reference row
// must be NumTags wide: the row kernels index it without bounds checks
// of their own, inside worker goroutines where a panic cannot be
// recovered by the caller.
//
//graphner:noalloc only its cold failure paths allocate, each justified inline
func checkInputs(n, xLen int, rows, xref [][]float64, labelled []bool, cfg Config) error {
	const Y = corpus.NumTags
	if xLen != n*Y {
		return fmt.Errorf("propagate: belief matrix has %d entries, want %d vertices × %d tags", xLen, n, Y) // lint:checked noalloc: cold validation failure path
	}
	if len(xref) != n || len(labelled) != n {
		// lint:checked noalloc: cold validation failure path
		return fmt.Errorf("propagate: slice lengths (%d,%d) != vertex count %d",
			len(xref), len(labelled), n)
	}
	if cfg.Iterations < 0 {
		return fmt.Errorf("propagate: negative iterations") // lint:checked noalloc: cold validation failure path
	}
	if cfg.Mu < 0 || cfg.Nu < 0 {
		return fmt.Errorf("propagate: negative hyper-parameter (mu=%g nu=%g)", cfg.Mu, cfg.Nu) // lint:checked noalloc: cold validation failure path
	}
	for v, row := range rows {
		if row != nil && len(row) != Y {
			return fmt.Errorf("propagate: belief row %d has length %d, want %d tags", v, len(row), Y) // lint:checked noalloc: cold validation failure path
		}
	}
	for v, l := range labelled {
		if l && len(xref[v]) != Y {
			return fmt.Errorf("propagate: labelled reference row %d has length %d, want %d tags", v, len(xref[v]), Y) // lint:checked noalloc: cold validation failure path
		}
	}
	return nil
}

// csrOfLists flattens slice-of-slices adjacency into a CSR view with n
// rows (rows beyond len(lists) are empty), preserving edge order.
func csrOfLists(lists [][]graph.Edge, n int) adjacency {
	if n < len(lists) {
		n = len(lists)
	}
	total := 0
	for _, es := range lists {
		total += len(es)
	}
	a := adjacency{
		off: make([]int32, n+1),
		to:  make([]int32, total),
		w:   make([]float64, total),
	}
	pos := int32(0)
	for v, es := range lists {
		a.off[v] = pos
		for _, e := range es {
			a.to[pos] = e.To
			a.w[pos] = e.Weight
			pos++
		}
	}
	for v := len(lists); v <= n; v++ {
		a.off[v] = pos
	}
	return a
}

// Run performs propagation in place on X. X[v] is the current label
// distribution of vertex v (length corpus.NumTags); xref[v] is its
// reference distribution, consulted only where labelled[v] is true. All
// three slices must be indexed like g.Vertices. Vertices whose X row is
// nil are treated as uniform and materialized.
//
// Run is an adapter over RunFlat: it copies the rows into a flat working
// matrix, runs the CSR kernel, and copies the result back into the
// caller's rows, so callers holding [][]float64 beliefs are untouched by
// the flat-layout refactor.
func Run(g *graph.Graph, X, xref [][]float64, labelled []bool, cfg Config) (Result, error) {
	const Y = corpus.NumTags
	n := g.NumVertices()
	if err := checkInputs(n, len(X)*Y, X, xref, labelled, cfg); err != nil {
		return Result{}, err
	}
	uniform := 1.0 / Y

	// Materialize nil rows out of one shared backing array (one
	// allocation instead of one per vertex).
	nilRows := 0
	for v := range X {
		if X[v] == nil {
			nilRows++
		}
	}
	if nilRows > 0 {
		backing := make([]float64, nilRows*Y)
		bi := 0
		for v := range X {
			if X[v] != nil {
				continue
			}
			row := backing[bi : bi+Y : bi+Y]
			for y := 0; y < Y; y++ {
				row[y] = uniform
			}
			X[v] = row
			bi += Y
		}
	}

	flat := make([]float64, n*Y)
	for v := range X {
		copy(flat[v*Y:(v+1)*Y], X[v])
	}
	res, err := RunFlat(g, flat, xref, labelled, cfg)
	if err != nil {
		return res, err
	}
	for v := range X {
		copy(X[v], flat[v*Y:(v+1)*Y])
	}
	return res, nil
}

// RunFlat performs propagation in place on the flat row-major belief
// matrix X, where X[v*corpus.NumTags+y] is vertex v's probability of tag
// y and len(X) must be g.NumVertices()·corpus.NumTags. xref and labelled
// are as in Run. This is the allocation-free entry point: besides the
// ping-pong sweep buffer and the loss history it allocates nothing per
// sweep.
//
//graphner:noalloc per-call setup is justified inline; TestSweepAllocGuard pins the sweep loop at zero
func RunFlat(g *graph.Graph, X []float64, xref [][]float64, labelled []bool, cfg Config) (Result, error) {
	const Y = corpus.NumTags
	n := g.NumVertices()
	if err := checkInputs(n, len(X), nil, xref, labelled, cfg); err != nil {
		return Result{}, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > n && n > 0 {
		cfg.Workers = n
	}
	uniform := 1.0 / Y

	adj := adjacencyOf(g, n) // lint:checked noalloc: CSR built once per call, not per sweep; TestSweepAllocGuard measures the sweeps

	// Debug-build invariants (no-ops otherwise): the adjacency must be a
	// well-formed CSR, and when the inputs are row-stochastic the Jacobi
	// update keeps every belief row summing to 1, sweep after sweep.
	checkRows := false
	if assert.Enabled {
		assert.CSRMonotonic(adj.off, len(adj.to), "propagate adjacency")
		checkRows = assert.Stochastic(X, Y)
		for v := 0; checkRows && v < n; v++ {
			if labelled[v] && !assert.Stochastic(xref[v], Y) {
				checkRows = false
			}
		}
	}

	var res Result
	if cfg.lossWanted(0, cfg.Iterations == 0) {
		res.Loss = make([]float64, 0, cfg.Iterations+1)                                  // lint:checked noalloc: opt-in loss history, sized once up front
		res.Loss = append(res.Loss, lossFlat(adj, X, xref, labelled, n, cfg.Mu, cfg.Nu)) // lint:checked noalloc: append stays within the capacity reserved above
	}
	if cfg.Iterations == 0 {
		return res, nil
	}

	cur := X
	next := make([]float64, n*Y)           // lint:checked noalloc: the ping-pong buffer, one per call; the sweep loop reuses it
	inX := true                            // whether cur aliases the caller's X
	deltas := make([]float64, cfg.Workers) // lint:checked noalloc: one word per worker, allocated once per call

	// Debug builds version-stamp each sweep: workers assert mid-block
	// that no other sweep epoch started or finished underneath them, so
	// any future caller that overlaps sweeps on shared buffers panics
	// instead of silently corrupting beliefs. Zero cost otherwise.
	var sweepGuard assert.SweepGuard

	for it := 0; it < cfg.Iterations; it++ {
		var sweepToken uint64
		if assert.Enabled {
			sweepToken = sweepGuard.BeginSweep("propagate belief matrix")
		}
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			// Contiguous block ranges rather than a strided v += Workers
			// walk: each worker streams a dense span of the belief matrix
			// and the CSR arrays, so adjacent rows share cache lines
			// within one worker instead of bouncing between all of them.
			// The partition only regroups which worker computes which
			// row; every row update reads and writes the same values, so
			// the sweep is bit-identical to the strided schedule.
			go func(w, lo, hi int) { // lint:checked noalloc: worker goroutines + closure are per-sweep runtime cost accepted by design; TestSweepAllocGuard bounds the total
				defer wg.Done()
				if assert.Enabled {
					sweepGuard.CheckSweep(sweepToken, "propagate belief matrix")
				}
				var maxDelta float64
				for v := lo; v < hi; v++ {
					row := v * Y
					d := updateRow(adj, cur, xref, labelled, v, cfg.Mu, cfg.Nu, uniform, next[row:row+Y])
					if d > maxDelta {
						maxDelta = d
					}
				}
				deltas[w] = maxDelta
			}(w, n*w/cfg.Workers, n*(w+1)/cfg.Workers)
		}
		wg.Wait()
		if assert.Enabled {
			sweepGuard.EndSweep(sweepToken, "propagate belief matrix")
		}
		res.MaxDelta = 0
		for _, d := range deltas {
			if d > res.MaxDelta {
				res.MaxDelta = d
			}
		}
		// Ping-pong instead of copying next back into cur: the swap makes
		// each sweep read memory once (the update pass), with the loss
		// evaluation below reading the freshly written buffer.
		cur, next = next, cur
		inX = !inX
		if assert.Enabled {
			assert.NoNaN(cur, "propagate beliefs after sweep")
			if checkRows {
				assert.RowsSumToOne(cur, Y, "propagate beliefs after sweep")
			}
		}
		if cfg.lossWanted(it+1, it == cfg.Iterations-1) {
			res.Loss = append(res.Loss, lossFlat(adj, cur, xref, labelled, n, cfg.Mu, cfg.Nu)) // lint:checked noalloc: loss history append within the capacity reserved up front
		}
	}
	// The final beliefs must land in the caller's X; after an odd number
	// of swaps they live in the scratch buffer.
	if !inX {
		copy(X, cur)
	}
	return res, nil
}

// updateRow applies the Equation-2 Jacobi coordinate update to vertex v:
// it reads the beliefs of v's out-neighbours from cur, writes v's new
// distribution into out (length corpus.NumTags), and returns the largest
// per-entry change.
//
//graphner:noalloc
//graphner:nonblocking
func updateRow(adj adjacency, cur []float64, xref [][]float64, labelled []bool, v int, mu, nu, uniform float64, out []float64) float64 {
	const Y = corpus.NumTags
	if Y == 3 {
		// Constant condition: the dead branch is eliminated at compile
		// time, so the tag-width change that would invalidate the
		// unrolled kernel also stops selecting it.
		return updateRow3(adj, cur, xref, labelled, v, mu, nu, uniform, out)
	}
	kappa := nu
	if labelled[v] {
		kappa++
	}
	var gamma [Y]float64
	for y := 0; y < Y; y++ {
		gamma[y] = nu * uniform
		if labelled[v] {
			gamma[y] += xref[v][y]
		}
	}
	for e, end := adj.off[v], adj.off[v+1]; e < end; e++ {
		mw := mu * adj.w[e]
		kappa += mw
		xe := cur[int(adj.to[e])*Y : int(adj.to[e])*Y+Y]
		for y := 0; y < Y; y++ {
			gamma[y] += mw * xe[y]
		}
	}
	row := v * Y
	if kappa == 0 {
		// Isolated unlabelled vertex with ν=0: keep as is.
		copy(out, cur[row:row+Y])
		return 0
	}
	var maxDelta float64
	for y := 0; y < Y; y++ {
		nv := gamma[y] / kappa
		if d := math.Abs(nv - cur[row+y]); d > maxDelta {
			maxDelta = d
		}
		out[y] = nv
	}
	return maxDelta
}

// updateRow3 is updateRow unrolled for the three-tag alphabet the corpus
// package fixes at compile time. Bit-identity with the generic loop is
// load-bearing: every accumulator (kappa, the three gamma components,
// maxDelta) sees exactly the same sequence of floating-point operations
// in the same order — the unrolling only renames gamma[y] to three
// scalars and peels the constant-bound loops, it never reassociates a
// sum or hoists a division.
//
//graphner:noalloc
//graphner:nonblocking
func updateRow3(adj adjacency, cur []float64, xref [][]float64, labelled []bool, v int, mu, nu, uniform float64, out []float64) float64 {
	kappa := nu
	u := nu * uniform
	g0, g1, g2 := u, u, u
	if labelled[v] {
		kappa++
		xr := xref[v]
		g0 += xr[0]
		g1 += xr[1]
		g2 += xr[2]
	}
	to, wt := adj.to, adj.w
	for e, end := adj.off[v], adj.off[v+1]; e < end; e++ {
		mw := mu * wt[e]
		kappa += mw
		o := int(to[e]) * 3
		xe := cur[o : o+3 : o+3]
		g0 += mw * xe[0]
		g1 += mw * xe[1]
		g2 += mw * xe[2]
	}
	row := v * 3
	if kappa == 0 {
		// Isolated unlabelled vertex with ν=0: keep as is.
		copy(out, cur[row:row+3])
		return 0
	}
	cr := cur[row : row+3 : row+3]
	var maxDelta float64
	nv := g0 / kappa
	if d := math.Abs(nv - cr[0]); d > maxDelta {
		maxDelta = d
	}
	out[0] = nv
	nv = g1 / kappa
	if d := math.Abs(nv - cr[1]); d > maxDelta {
		maxDelta = d
	}
	out[1] = nv
	nv = g2 / kappa
	if d := math.Abs(nv - cr[2]); d > maxDelta {
		maxDelta = d
	}
	out[2] = nv
	return maxDelta
}

// Loss evaluates the Equation-1 objective:
//
//	C(X) = Σ_{u∈V_l} ‖X(u)−X_ref(u)‖² + μ Σ_u Σ_{k∈N(u)} w_{u,k}‖X(u)−X(k)‖²
//	       + ν Σ_u ‖X(u)−U‖²
//
// over slice-of-rows beliefs (nil rows are skipped, matching Run's
// pre-materialization semantics).
func Loss(g *graph.Graph, X, xref [][]float64, labelled []bool, cfg Config) float64 {
	const Y = corpus.NumTags
	uniform := 1.0 / Y
	var c float64
	for v := range X {
		if X[v] == nil {
			continue
		}
		if labelled[v] {
			for y := 0; y < Y; y++ {
				d := X[v][y] - xref[v][y]
				c += d * d
			}
		}
		if v < len(g.Neighbors) {
			for _, e := range g.Neighbors[v] {
				if X[e.To] == nil {
					continue
				}
				var s float64
				for y := 0; y < Y; y++ {
					d := X[v][y] - X[e.To][y]
					s += d * d
				}
				c += cfg.Mu * e.Weight * s
			}
		}
		for y := 0; y < Y; y++ {
			d := X[v][y] - uniform
			c += cfg.Nu * d * d
		}
	}
	return c
}

// lossFlat is Loss over the flat belief matrix and a CSR adjacency. The
// accumulation order matches Loss term for term (sequential over vertices,
// labelled → edges → uniform within each vertex), so losses reported by
// RunFlat are bit-identical to the slice-of-rows implementation.
//
//graphner:noalloc
//graphner:nonblocking
func lossFlat(adj adjacency, X []float64, xref [][]float64, labelled []bool, n int, mu, nu float64) float64 {
	const Y = corpus.NumTags
	if Y == 3 {
		// Same compile-time dispatch as updateRow: the unrolled kernel
		// is only selected while the tag alphabet stays three-wide.
		return lossFlat3(adj, X, xref, labelled, n, mu, nu)
	}
	uniform := 1.0 / Y
	var c float64
	for v := 0; v < n; v++ {
		row := v * Y
		if labelled[v] {
			for y := 0; y < Y; y++ {
				d := X[row+y] - xref[v][y]
				c += d * d
			}
		}
		for e, end := adj.off[v], adj.off[v+1]; e < end; e++ {
			other := int(adj.to[e]) * Y
			var s float64
			for y := 0; y < Y; y++ {
				d := X[row+y] - X[other+y]
				s += d * d
			}
			c += mu * adj.w[e] * s
		}
		for y := 0; y < Y; y++ {
			d := X[row+y] - uniform
			c += nu * d * d
		}
	}
	return c
}

// lossFlat3 is lossFlat unrolled for the three-tag alphabet, with the
// same bit-identity contract as updateRow3: the global accumulator c and
// each per-edge partial sum s receive the same floating-point operations
// in the same order as the generic loops (s starts from d0·d0 rather
// than 0+d0·d0 — identical bits, squares are never negative zero).
//
//graphner:noalloc
//graphner:nonblocking
func lossFlat3(adj adjacency, X []float64, xref [][]float64, labelled []bool, n int, mu, nu float64) float64 {
	const uniform = 1.0 / 3
	var c float64
	for v := 0; v < n; v++ {
		row := v * 3
		x := X[row : row+3 : row+3]
		if labelled[v] {
			xr := xref[v]
			d := x[0] - xr[0]
			c += d * d
			d = x[1] - xr[1]
			c += d * d
			d = x[2] - xr[2]
			c += d * d
		}
		to, wt := adj.to, adj.w
		for e, end := adj.off[v], adj.off[v+1]; e < end; e++ {
			o := int(to[e]) * 3
			xo := X[o : o+3 : o+3]
			d0 := x[0] - xo[0]
			d1 := x[1] - xo[1]
			d2 := x[2] - xo[2]
			s := d0 * d0
			s += d1 * d1
			s += d2 * d2
			c += mu * wt[e] * s
		}
		d := x[0] - uniform
		c += nu * d * d
		d = x[1] - uniform
		c += nu * d * d
		d = x[2] - uniform
		c += nu * d * d
	}
	return c
}
