package propagate

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/graph"
)

// flatUniform returns an n-row flat belief matrix initialized uniform.
func flatUniform(n int) []float64 {
	const Y = corpus.NumTags
	X := make([]float64, n*Y)
	for i := range X {
		X[i] = 1.0 / Y
	}
	return X
}

// warmProblem builds a random propagation problem over a random graph,
// with flat beliefs.
func warmProblem(rng *rand.Rand, n, k int) (*graph.Graph, []float64, [][]float64, []bool) {
	g := randomGraph(rng, n, k)
	g.EnsureCSR()
	X := flatUniform(n)
	xref := make([][]float64, n)
	labelled := make([]bool, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.3 {
			labelled[v] = true
			a := 0.2 + 0.6*rng.Float64()
			xref[v] = []float64{a, (1 - a) / 2, (1 - a) / 2}
		}
	}
	return g, X, xref, labelled
}

// TestWarmStartEmptyDirtySetIsNoop: with nothing dirty there is no
// frontier, no sweeps run, and beliefs are untouched.
func TestWarmStartEmptyDirtySetIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, X, xref, labelled := warmProblem(rng, 50, 4)
	before := append([]float64(nil), X...)
	res, err := RunWarmFlat(g, X, xref, labelled, Config{Mu: 0.2, Nu: 0.05, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps != 0 || res.Updates != 0 || !res.Converged {
		t.Fatalf("empty dirty set ran %d sweeps, %d updates", res.Sweeps, res.Updates)
	}
	for i := range X {
		if X[i] != before[i] { // lint:checked no-op must be bit-exact
			t.Fatal("beliefs changed with empty dirty set")
		}
	}
}

// TestWarmStartConvergesToFullFixedPoint is the documented-tolerance bar:
// after a localized graph change, warm-start frontier propagation from the
// previous converged beliefs must land within the documented bound —
// 2·Tolerance·ρ/(1−ρ) — of a fully converged from-scratch sweep on the
// new graph. Mu/Nu here give contraction modulus ρ ≤ μK/(ν+μK) ≈ 0.952,
// so with Tolerance 1e-9 the bound is ≈ 4e-8; we assert 1e-6 for slack.
func TestWarmStartConvergesToFullFixedPoint(t *testing.T) {
	const Y = corpus.NumTags
	const tol = 1e-9
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Mu: 0.2, Nu: 0.05, Tolerance: tol, Iterations: 100000, Workers: 3}

	for trial := 0; trial < 5; trial++ {
		g, X, xref, labelled := warmProblem(rng, 80, 5)
		if _, err := RunFlat(g, X, xref, labelled, cfg); err != nil {
			t.Fatal(err)
		}

		// Localized change: rewire a handful of rows and append two new
		// vertices, mimicking an incremental graph update.
		n := g.NumVertices()
		dirty := []int32{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(n), int32(n + 1)}
		for _, v := range dirty[:2] {
			g.Neighbors[v] = []graph.Edge{{To: int32(rng.Intn(n)), Weight: 0.9}}
		}
		for i := 0; i < 2; i++ {
			g.Vertices = append(g.Vertices, corpus.NGram("new"+string(rune('a'+i))+string(rune('a'+trial))))
			g.Neighbors = append(g.Neighbors, []graph.Edge{{To: int32(rng.Intn(n)), Weight: 0.8}})
		}
		g.BuildCSR()
		n = g.NumVertices()
		labelled = append(labelled, false, false)
		xref = append(xref, nil, nil)
		warmX := append(append([]float64(nil), X...), flatUniform(2)...)

		res, err := RunWarmFlat(g, warmX, xref, labelled, cfg, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: warm start hit the sweep cap (%d sweeps)", trial, res.Sweeps)
		}

		fullX := flatUniform(n)
		if _, err := RunFlat(g, fullX, xref, labelled, cfg); err != nil {
			t.Fatal(err)
		}
		for i := range fullX {
			if d := math.Abs(warmX[i] - fullX[i]); d > 1e-6 {
				t.Fatalf("trial %d: entry %d differs by %g (warm %v vs full %v)", trial, i, d, warmX[i], fullX[i])
			}
		}
		// Touched rows must cover every entry that actually moved.
		for v := 0; v < n; v++ {
			if res.Touched[v] {
				continue
			}
			for y := 0; y < Y; y++ {
				idx := v*Y + y
				orig := 1.0 / Y
				if v < len(X)/Y {
					orig = X[idx]
				}
				if warmX[idx] != orig { // lint:checked untouched rows must be bit-identical
					t.Fatalf("trial %d: vertex %d changed but not marked touched", trial, v)
				}
			}
		}
	}
}

// TestWarmStartTouchesFractionOnly: on a localized change, warm-start
// visits far fewer rows than sweeps × vertices — the point of the
// frontier. A ring lattice gives the graph enough diameter for locality
// to be observable (deltas decay below tolerance before the frontier can
// wrap around), unlike small-diameter random graphs.
func TestWarmStartTouchesFractionOnly(t *testing.T) {
	const n = 400
	g := &graph.Graph{K: 2, Neighbors: make([][]graph.Edge, n)}
	for v := 0; v < n; v++ {
		g.Vertices = append(g.Vertices, corpus.NGram("r"+string(rune('a'+v%26))+string(rune('a'+v/26))))
		g.Neighbors[v] = []graph.Edge{
			{To: int32((v + 1) % n), Weight: 0.7},
			{To: int32((v + 2) % n), Weight: 0.3},
		}
	}
	g.EnsureCSR()
	X := flatUniform(n)
	xref := make([][]float64, n)
	labelled := make([]bool, n)
	for v := 0; v < n; v += 5 {
		labelled[v] = true
		xref[v] = []float64{0.8, 0.1, 0.1}
	}
	cfg := Config{Mu: 0.05, Nu: 0.2, Tolerance: 1e-10, Iterations: 100000, Workers: 2}
	if _, err := RunFlat(g, X, xref, labelled, cfg); err != nil {
		t.Fatal(err)
	}
	dirty := []int32{3}
	g.Neighbors[3] = []graph.Edge{{To: 200, Weight: 0.99}}
	g.BuildCSR()
	res, err := RunWarmFlat(g, X, xref, labelled, cfg, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("warm start did not converge")
	}
	if full := res.Sweeps * g.NumVertices(); res.Updates >= full/4 {
		t.Fatalf("warm start updated %d rows over %d sweeps; full sweeps would do %d — frontier not localized",
			res.Updates, res.Sweeps, full)
	}
}

// TestRunFlatToleranceEarlyStop: with Tolerance set, RunFlat stops before
// the iteration cap once sweeps stop changing beliefs, and reports the
// per-sweep loss history it actually ran.
func TestRunFlatToleranceEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, X, xref, labelled := warmProblem(rng, 60, 4)
	res, err := RunFlat(g, X, xref, labelled, Config{Mu: 0.2, Nu: 0.05, Tolerance: 1e-8, Iterations: 100000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Loss) - 1; got >= 100000 || got < 1 {
		t.Fatalf("ran %d sweeps, expected early stop", got)
	}
	if res.MaxDelta > 1e-8 {
		t.Fatalf("stopped at MaxDelta %g > tolerance", res.MaxDelta)
	}
}

// runWarmReference is a plain serial RunWarmFlat: each sweep collects the
// next frontier under an epoch mark array and sorts it, and rows are
// computed and applied on one goroutine. cfg must set Iterations and
// Tolerance; no defaults are applied.
func runWarmReference(g *graph.Graph, X []float64, xref [][]float64, labelled []bool, cfg Config, dirty []int32) WarmResult {
	const Y = corpus.NumTags
	n := g.NumVertices()
	adj := adjacencyOf(g, n)
	roff, rto := reverseOf(adj, n)
	res := WarmResult{Touched: make([]bool, n)}
	mark := make([]int32, n)
	epoch := int32(1)
	var active []int32
	add := func(v int32) {
		if mark[v] != epoch {
			mark[v] = epoch
			active = append(active, v)
		}
	}
	for _, v := range dirty {
		add(v)
		for e := adj.off[v]; e < adj.off[v+1]; e++ {
			add(adj.to[e])
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
	for sweep := 0; sweep < cfg.Iterations && len(active) > 0; sweep++ {
		buf := make([]float64, len(active)*Y)
		delta := make([]float64, len(active))
		for ai, v := range active {
			delta[ai] = updateRow(adj, X, xref, labelled, int(v), cfg.Mu, cfg.Nu, 1.0/Y, buf[ai*Y:ai*Y+Y])
		}
		cur := active
		active = nil
		epoch++
		res.MaxDelta = 0
		for ai, v := range cur {
			d := delta[ai]
			if d > res.MaxDelta {
				res.MaxDelta = d
			}
			if d > 0 {
				copy(X[int(v)*Y:int(v)*Y+Y], buf[ai*Y:ai*Y+Y])
				res.Touched[v] = true
			}
			if d > cfg.Tolerance {
				for e := roff[v]; e < roff[v+1]; e++ {
					add(rto[e])
				}
			}
		}
		res.Updates += len(cur)
		res.Sweeps++
		sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
	}
	res.Converged = len(active) == 0
	return res
}

// TestRunWarmFlatMatchesReference: for every worker count, RunWarmFlat
// gives bit-identical beliefs and the same Touched, Sweeps, Updates,
// MaxDelta and Converged as the serial reference — on frontiers that
// cover one bitset word or several, sparse graphs whose frontier stays
// partial, and a run stopped at its sweep cap.
func TestRunWarmFlatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		n, k, dirty, iters int
	}{
		{n: 1, k: 1, dirty: 1, iters: 100000},
		{n: 63, k: 2, dirty: 3, iters: 100000},
		{n: 130, k: 3, dirty: 5, iters: 100000},
		{n: 200, k: 1, dirty: 2, iters: 100000},
		{n: 300, k: 5, dirty: 8, iters: 100000},
		{n: 300, k: 5, dirty: 8, iters: 7},
	}
	for ci, c := range cases {
		g, X, xref, labelled := warmProblem(rng, c.n, c.k)
		// A few full sweeps first, so the warm run starts from beliefs
		// that still move.
		if _, err := RunFlat(g, X, xref, labelled, Config{Mu: 0.2, Nu: 0.05, Iterations: 5, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		dirty := make([]int32, c.dirty) // repeats allowed: the frontier must dedupe them
		for i := range dirty {
			dirty[i] = int32(rng.Intn(c.n))
		}
		cfg := Config{Mu: 0.2, Nu: 0.05, Tolerance: 1e-9, Iterations: c.iters}
		wantX := append([]float64(nil), X...)
		want := runWarmReference(g, wantX, xref, labelled, cfg, dirty)
		if c.iters < 100 && want.Converged {
			t.Fatalf("case %d: reference converged in %d sweeps; the case must stop at its cap", ci, want.Sweeps)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			cfg.Workers = workers
			gotX := append([]float64(nil), X...)
			got, err := RunWarmFlat(g, gotX, xref, labelled, cfg, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sweeps != want.Sweeps || got.Updates != want.Updates || got.Converged != want.Converged ||
				math.Float64bits(got.MaxDelta) != math.Float64bits(want.MaxDelta) {
				t.Fatalf("case %d, %d workers: got sweeps=%d updates=%d maxDelta=%g converged=%v, want %d %d %g %v",
					ci, workers, got.Sweeps, got.Updates, got.MaxDelta, got.Converged,
					want.Sweeps, want.Updates, want.MaxDelta, want.Converged)
			}
			for v := range want.Touched {
				if got.Touched[v] != want.Touched[v] {
					t.Fatalf("case %d, %d workers: Touched[%d] = %v, want %v", ci, workers, v, got.Touched[v], want.Touched[v])
				}
			}
			for i := range wantX {
				if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
					t.Fatalf("case %d, %d workers: belief %d = %v, want %v", ci, workers, i, gotX[i], wantX[i])
				}
			}
		}
	}
}
