package propagate

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/graph"
)

// DefaultWarmTolerance is the per-entry convergence tolerance RunWarmFlat
// uses when Config.Tolerance is zero.
const DefaultWarmTolerance = 1e-8

// defaultWarmSweepCap bounds warm-start sweeps when Config.Iterations is
// zero. The coordinate update is a contraction, so the frontier normally
// drains long before this; the cap is a backstop against hyper-parameter
// regimes whose contraction modulus is within Tolerance of 1.
const defaultWarmSweepCap = 4096

// WarmResult reports what a warm-start propagation did.
type WarmResult struct {
	// Sweeps counts frontier sweeps executed.
	Sweeps int
	// Updates counts row updates across all sweeps — the work actually
	// done, versus Sweeps·NumVertices for full sweeps.
	Updates int
	// MaxDelta is the largest per-entry change of the final sweep.
	MaxDelta float64
	// Converged reports that the frontier drained (every active vertex
	// changed by at most the tolerance) before the sweep cap.
	Converged bool
	// Touched[v] is true if v's beliefs changed at all during the run.
	// Callers re-derive per-sentence decodes only where this is set.
	Touched []bool
}

// RunWarmFlat updates the flat belief matrix X after a localized graph
// change, without touching unchanged regions. It reuses the previous
// beliefs as initialization, seeds the worklist with the dirty vertices
// (rows whose update rule changed: new vertices and rewritten neighbour
// lists, e.g. graph.UpdateResult.DirtyRows) plus their out-neighbours, and
// sweeps only the expanding frontier: a vertex re-enters the worklist when
// one of its out-neighbours — the rows its Equation-2 update reads —
// changed by more than the tolerance in the previous sweep.
//
// Termination: a sweep that changes every active vertex by at most
// cfg.Tolerance adds nothing to the frontier and the run stops. Because
// the update is a contraction toward the unique Equation-1 fixed point,
// the result agrees with a fully converged RunFlat (same tolerance) to
// within 2·Tolerance·ρ/(1−ρ), ρ the contraction modulus — the documented
// warm-start tolerance. Changes smaller than the tolerance are applied but
// not propagated; unchanged regions of the graph are never visited.
//
//graphner:noalloc per-call setup and the capacity-guarded row buffer are justified inline; TestWarmSweepAllocGuard pins the per-sweep cost
func RunWarmFlat(g *graph.Graph, X []float64, xref [][]float64, labelled []bool, cfg Config, dirty []int32) (WarmResult, error) {
	const Y = corpus.NumTags
	n := g.NumVertices()
	var res WarmResult
	if err := checkInputs(n, len(X), nil, xref, labelled, cfg); err != nil {
		return res, err
	}
	for _, v := range dirty {
		if v < 0 || int(v) >= n {
			return res, fmt.Errorf("propagate: dirty vertex %d out of range [0,%d)", v, n) // lint:checked noalloc: cold validation failure path
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > n && n > 0 {
		cfg.Workers = n
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = DefaultWarmTolerance
	}
	maxSweeps := cfg.Iterations
	if maxSweeps <= 0 {
		maxSweeps = defaultWarmSweepCap
	}
	uniform := 1.0 / Y

	adj := adjacencyOf(g, n)       // lint:checked noalloc: CSR built once per call; the sweep loop below reuses it
	roff, rto := reverseOf(adj, n) // lint:checked noalloc: reverse CSR built once per call for frontier expansion
	if assert.Enabled {
		assert.CSRMonotonic(adj.off, len(adj.to), "warm propagate adjacency")
		assert.CSRMonotonic(roff, len(rto), "warm propagate reverse adjacency")
	}
	res.Touched = make([]bool, n) // lint:checked noalloc: per-call result bitmap, part of the WarmResult contract

	// The frontier is one vertex bitset per worker, laid out back to back:
	// a sweep's workers mark the rows to revisit in their own set, and
	// drainFrontier merges the sets into the next worklist, deduplicated
	// and in ascending vertex order. The order is for memory locality
	// only: Jacobi row updates read the previous sweep's beliefs, so no
	// result depends on the order of the worklist or how it is split.
	words := (n + 63) / 64
	frontier := make([]uint64, cfg.Workers*words) // lint:checked noalloc: per-call frontier bitsets, one bit per vertex per worker
	for _, v := range dirty {
		frontier[v>>6] |= 1 << (v & 63)
		for e, end := adj.off[v], adj.off[v+1]; e < end; e++ {
			u := adj.to[e]
			frontier[u>>6] |= 1 << (u & 63)
		}
	}
	active := make([]int32, n) // lint:checked noalloc: per-call worklist; a frontier never exceeds the vertex count
	active = active[:drainFrontier(frontier, words, active)]
	workerMax := make([]float64, cfg.Workers) // lint:checked noalloc: one word per worker, allocated once per call

	var (
		buf        []float64 // computed rows, parallel to active
		rowDelta   []float64
		sweepGuard assert.SweepGuard
	)
	for sweep := 0; sweep < maxSweeps && len(active) > 0; sweep++ {
		need := len(active) * Y
		if cap(buf) < need {
			buf = make([]float64, need)             // lint:checked noalloc: capacity-guarded growth; steady-state sweeps reuse the high-water buffer
			rowDelta = make([]float64, len(active)) // lint:checked noalloc: grown together with buf above
		} else {
			buf = buf[:need]
			rowDelta = rowDelta[:len(active)]
		}
		workers := min(cfg.Workers, len(active))
		var sweepToken uint64
		if assert.Enabled {
			sweepToken = sweepGuard.BeginSweep("warm propagate belief matrix")
		}
		// Each worker takes a contiguous block of the worklist, matching
		// RunFlat's partitioning, and runs two passes over it separated by
		// a barrier: compute the block's rows from the current beliefs,
		// then, once every worker has, apply them and grow the next
		// frontier. No row of X may change before all workers have read it.
		var updated, wg sync.WaitGroup
		updated.Add(workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w, lo, hi int) { // lint:checked noalloc: worker goroutines + closure are per-sweep runtime cost accepted by design; TestWarmSweepAllocGuard bounds the total
				defer wg.Done()
				if assert.Enabled {
					sweepGuard.CheckSweep(sweepToken, "warm propagate belief matrix")
				}
				for ai := lo; ai < hi; ai++ {
					rowDelta[ai] = updateRow(adj, X, xref, labelled, int(active[ai]), cfg.Mu, cfg.Nu, uniform, buf[ai*Y:ai*Y+Y])
				}
				updated.Done()
				updated.Wait()

				// Writes to X and Touched are disjoint across workers
				// because the worklist holds each vertex once. The rows a
				// changed vertex feeds are its in-neighbours (they read
				// it), so expansion walks the reverse adjacency.
				next := frontier[w*words : (w+1)*words]
				var maxDelta float64
				for ai := lo; ai < hi; ai++ {
					v := active[ai]
					d := rowDelta[ai]
					if d > maxDelta {
						maxDelta = d
					}
					if d > 0 {
						row := int(v) * Y
						copy(X[row:row+Y], buf[ai*Y:ai*Y+Y])
						res.Touched[v] = true
					}
					if d > cfg.Tolerance {
						for e, end := roff[v], roff[v+1]; e < end; e++ {
							u := rto[e]
							next[u>>6] |= 1 << (u & 63)
						}
					}
				}
				workerMax[w] = maxDelta
			}(w, len(active)*w/workers, len(active)*(w+1)/workers)
		}
		wg.Wait()
		if assert.Enabled {
			sweepGuard.EndSweep(sweepToken, "warm propagate belief matrix")
		}

		res.MaxDelta = 0
		for _, d := range workerMax[:workers] {
			if d > res.MaxDelta {
				res.MaxDelta = d
			}
		}
		res.Updates += len(active)
		res.Sweeps++
		active = active[:drainFrontier(frontier, words, active[:n])]
		if assert.Enabled {
			assert.NoNaN(X, "warm propagate beliefs after sweep")
		}
	}
	res.Converged = len(active) == 0
	return res, nil
}

// drainFrontier merges the per-worker frontier bitsets in sets (each
// words long, back to back) into out as ascending vertex ids, clears
// them for the next sweep, and returns how many ids it wrote. out must
// have room for every vertex.
//
//graphner:noalloc
//graphner:nonblocking
func drainFrontier(sets []uint64, words int, out []int32) int {
	k := 0
	for i := 0; i < words; i++ {
		var word uint64
		for s := i; s < len(sets); s += words {
			word |= sets[s]
			sets[s] = 0
		}
		for ; word != 0; word &= word - 1 {
			out[k] = int32(i<<6 + bits.TrailingZeros64(word))
			k++
		}
	}
	return k
}

// reverseOf builds the reverse adjacency of a CSR view — for each vertex,
// the vertices that have it as an out-neighbour — as offset and target
// arrays (weights are not needed for frontier expansion).
func reverseOf(adj adjacency, n int) (off, to []int32) {
	counts := make([]int32, n)
	for _, t := range adj.to {
		counts[t]++
	}
	off = make([]int32, n+1)
	var pos int32
	for v := 0; v < n; v++ {
		off[v] = pos
		pos += counts[v]
	}
	off[n] = pos
	to = make([]int32, pos)
	cursor := counts // reuse as per-vertex fill cursor
	copy(cursor, off[:n])
	for v := 0; v < n; v++ {
		for e, end := adj.off[v], adj.off[v+1]; e < end; e++ {
			t := adj.to[e]
			to[cursor[t]] = int32(v)
			cursor[t]++
		}
	}
	return off, to
}
