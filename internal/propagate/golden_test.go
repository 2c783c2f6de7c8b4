package propagate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/graph"
)

// This file pins the flat CSR kernel to the seed implementation:
// referenceRun and referenceLoss below are verbatim copies of the original
// row-slice Jacobi sweep (modulo identifier renames), and the tests demand
// bit-identical Loss histories, MaxDelta, and final beliefs. Any change to
// the kernel's arithmetic order shows up here as an exact-float mismatch.

// referenceRun is the seed Run implementation (pre-CSR).
func referenceRun(g *graph.Graph, X, xref [][]float64, labelled []bool, cfg Config) (Result, error) {
	n := g.NumVertices()
	if len(X) != n || len(xref) != n || len(labelled) != n {
		panic("referenceRun: length mismatch")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	const Y = corpus.NumTags
	uniform := 1.0 / Y

	for v := range X {
		if X[v] == nil {
			X[v] = []float64{uniform, uniform, uniform}
		}
	}

	neigh := g.Neighbors

	res := Result{Loss: make([]float64, 0, cfg.Iterations+1)}
	res.Loss = append(res.Loss, referenceLoss(neigh, X, xref, labelled, cfg))

	cur := X
	next := make([][]float64, n)
	flat := make([]float64, n*Y)
	for v := range next {
		next[v] = flat[v*Y : (v+1)*Y]
	}

	for it := 0; it < cfg.Iterations; it++ {
		var wg sync.WaitGroup
		deltas := make([]float64, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var maxDelta float64
				for v := w; v < n; v += cfg.Workers {
					kappa := cfg.Nu
					if labelled[v] {
						kappa++
					}
					var gamma [Y]float64
					for y := 0; y < Y; y++ {
						gamma[y] = cfg.Nu * uniform
						if labelled[v] {
							gamma[y] += xref[v][y]
						}
					}
					for _, e := range neigh[v] {
						kappa += cfg.Mu * e.Weight
						xe := cur[e.To]
						for y := 0; y < Y; y++ {
							gamma[y] += cfg.Mu * e.Weight * xe[y]
						}
					}
					if kappa == 0 {
						copy(next[v], cur[v])
						continue
					}
					for y := 0; y < Y; y++ {
						nv := gamma[y] / kappa
						if d := math.Abs(nv - cur[v][y]); d > maxDelta {
							maxDelta = d
						}
						next[v][y] = nv
					}
				}
				deltas[w] = maxDelta
			}(w)
		}
		wg.Wait()
		res.MaxDelta = 0
		for _, d := range deltas {
			if d > res.MaxDelta {
				res.MaxDelta = d
			}
		}
		for v := range cur {
			copy(cur[v], next[v])
		}
		res.Loss = append(res.Loss, referenceLoss(neigh, X, xref, labelled, cfg))
	}
	return res, nil
}

// referenceLoss is the seed Loss implementation over explicit lists.
func referenceLoss(neigh [][]graph.Edge, X, xref [][]float64, labelled []bool, cfg Config) float64 {
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
		for _, e := range neigh[v] {
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
		for y := 0; y < Y; y++ {
			d := X[v][y] - uniform
			c += cfg.Nu * d * d
		}
	}
	return c
}

// randomProblem builds a random directed k-NN-like graph with beliefs,
// references, and a labelled mask. Some X rows are nil (uniform).
func randomProblem(rng *rand.Rand, n, k int) (*graph.Graph, [][]float64, [][]float64, []bool) {
	g := &graph.Graph{
		Vertices:  make([]corpus.NGram, n),
		Neighbors: make([][]graph.Edge, n),
		K:         k,
	}
	for v := 0; v < n; v++ {
		deg := rng.Intn(k + 1)
		seen := map[int32]bool{int32(v): true}
		for len(g.Neighbors[v]) < deg {
			to := int32(rng.Intn(n))
			if seen[to] {
				continue
			}
			seen[to] = true
			g.Neighbors[v] = append(g.Neighbors[v], graph.Edge{To: to, Weight: rng.Float64()})
		}
	}
	dist := func() []float64 {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		return []float64{a, b - a, 1 - b}
	}
	X := make([][]float64, n)
	xref := make([][]float64, n)
	labelled := make([]bool, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.8 {
			X[v] = dist()
		}
		if rng.Float64() < 0.4 {
			labelled[v] = true
			xref[v] = dist()
		}
	}
	return g, X, xref, labelled
}

func deepCopy(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, r := range X {
		if r != nil {
			out[i] = append([]float64(nil), r...)
		}
	}
	return out
}

func TestRunMatchesSeedBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	configs := []Config{
		{Mu: 1e-4, Nu: 1e-6, Iterations: 3, Workers: 1},
		{Mu: 1e-4, Nu: 1e-6, Iterations: 2, Workers: 4},
		{Mu: 0.5, Nu: 0, Iterations: 4, Workers: 3}, // kappa==0 on isolated unlabelled vertices
	}
	for trial := 0; trial < 6; trial++ {
		g, X, xref, labelled := randomProblem(rng, 40+trial*17, 5)
		for ci, cfg := range configs {
			for _, withCSR := range []bool{false, true} {
				gotX := deepCopy(X)
				refX := deepCopy(X)
				gRun := g
				if withCSR {
					cp := *g
					cp.BuildCSR()
					gRun = &cp
				}
				got, err := Run(gRun, gotX, xref, labelled, cfg)
				if err != nil {
					t.Fatalf("trial %d cfg %d: %v", trial, ci, err)
				}
				want, _ := referenceRun(g, refX, xref, labelled, cfg)
				if len(got.Loss) != len(want.Loss) {
					t.Fatalf("trial %d cfg %d csr=%v: loss history length %d vs %d",
						trial, ci, withCSR, len(got.Loss), len(want.Loss))
				}
				for i := range got.Loss {
					if got.Loss[i] != want.Loss[i] {
						t.Errorf("trial %d cfg %d csr=%v: Loss[%d] = %v, seed %v",
							trial, ci, withCSR, i, got.Loss[i], want.Loss[i])
					}
				}
				if got.MaxDelta != want.MaxDelta {
					t.Errorf("trial %d cfg %d csr=%v: MaxDelta = %v, seed %v",
						trial, ci, withCSR, got.MaxDelta, want.MaxDelta)
				}
				for v := range gotX {
					for y := range gotX[v] {
						if gotX[v][y] != refX[v][y] {
							t.Fatalf("trial %d cfg %d csr=%v: X[%d][%d] = %v, seed %v",
								trial, ci, withCSR, v, y, gotX[v][y], refX[v][y])
						}
					}
				}
			}
		}
	}
}

// TestRunWorkerCountInvariant pins the kernel's determinism across worker
// counts: the per-vertex update reads only the previous sweep, and the loss
// is accumulated sequentially, so parallelism must not change a single bit.
func TestRunWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, X, xref, labelled := randomProblem(rng, 120, 6)
	cfg := Config{Mu: 1e-3, Nu: 1e-5, Iterations: 3}

	var base Result
	var baseX [][]float64
	for i, w := range []int{1, 2, 5, 16, 1000} {
		cfg.Workers = w
		Xw := deepCopy(X)
		res, err := Run(g, Xw, xref, labelled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base, baseX = res, Xw
			continue
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", w), res, base)
		for v := range Xw {
			for y := range Xw[v] {
				if Xw[v][y] != baseX[v][y] {
					t.Fatalf("workers=%d: X[%d][%d] differs", w, v, y)
				}
			}
		}
	}
}
