package propagate

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/graph"
)

// chainGraph builds a path graph 0-1-2-...-(n-1) with unit weights, edges
// directed left to right.
func chainGraph(n int) *graph.Graph {
	g := &graph.Graph{
		Index:     make(map[corpus.NGram]int),
		Neighbors: make([][]graph.Edge, n),
		K:         1,
	}
	for i := 0; i < n; i++ {
		v := corpus.NGram(string(rune('a' + i)))
		g.Vertices = append(g.Vertices, v)
		g.Index[v] = i
		if i+1 < n {
			g.Neighbors[i] = []graph.Edge{{To: int32(i + 1), Weight: 1}}
		}
	}
	return g
}

func dist(vals ...float64) []float64 { return vals }

func TestValidation(t *testing.T) {
	g := chainGraph(3)
	X := make([][]float64, 3)
	xref := make([][]float64, 3)
	lab := make([]bool, 3)
	if _, err := Run(g, X[:2], xref, lab, Config{}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := Run(g, X, xref, lab, Config{Iterations: -1}); err == nil {
		t.Error("want error for negative iterations")
	}
	if _, err := Run(g, X, xref, lab, Config{Mu: -1}); err == nil {
		t.Error("want error for negative mu")
	}
}

func TestZeroIterationsIsNoOp(t *testing.T) {
	g := chainGraph(2)
	X := [][]float64{dist(1, 0, 0), dist(0, 0, 1)}
	xref := make([][]float64, 2)
	lab := []bool{false, false}
	res, err := Run(g, X, xref, lab, Config{Iterations: 0, Mu: 1, Nu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if X[0][0] != 1 || X[1][2] != 1 {
		t.Error("zero iterations modified X")
	}
	if len(res.Loss) != 1 {
		t.Errorf("loss history length %d", len(res.Loss))
	}
}

func TestNilRowsBecomeUniform(t *testing.T) {
	g := chainGraph(2)
	X := [][]float64{nil, nil}
	xref := make([][]float64, 2)
	lab := []bool{false, false}
	if _, err := Run(g, X, xref, lab, Config{Iterations: 1, Nu: 1}); err != nil {
		t.Fatal(err)
	}
	for v := range X {
		for y := 0; y < corpus.NumTags; y++ {
			if math.Abs(X[v][y]-1.0/3) > 1e-12 {
				t.Errorf("X[%d] = %v, want uniform", v, X[v])
			}
		}
	}
}

func TestLabelledVertexPullsNeighbour(t *testing.T) {
	// Vertex 0 is labelled with a B-peaked reference; vertex 1 starts
	// uniform. An update reads only out-neighbours, so the reciprocal
	// edge 1→0 is what lets repeated sweeps pull 1 toward 0's reference.
	g := chainGraph(2)
	g.Neighbors[1] = []graph.Edge{{To: 0, Weight: 1}}
	X := [][]float64{dist(1.0/3, 1.0/3, 1.0/3), dist(1.0/3, 1.0/3, 1.0/3)}
	xref := [][]float64{dist(1, 0, 0), nil}
	lab := []bool{true, false}
	_, err := Run(g, X, xref, lab, Config{Iterations: 20, Mu: 0.5, Nu: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if X[0][corpus.B] < 0.8 {
		t.Errorf("labelled vertex did not move to its reference: %v", X[0])
	}
	if X[1][corpus.B] <= 1.0/3+1e-9 {
		t.Errorf("neighbour not pulled toward B: %v", X[1])
	}
}

// TestRowWidthRejected pins the row-width check of every entry point: a
// labelled reference row, or one of Run's belief rows, that is not
// corpus.NumTags wide is refused with an error naming the row, before
// any belief is written. Without the check the row kernels index past
// the short row inside a worker goroutine (a panic the caller cannot
// recover) or leave non-stochastic beliefs behind.
func TestRowWidthRejected(t *testing.T) {
	const Y = corpus.NumTags
	g := chainGraph(3)
	g.Neighbors[2] = []graph.Edge{{To: 0, Weight: 1}}
	short := dist(0.5, 0.5)
	goodRef := [][]float64{nil, dist(1, 0, 0), nil}
	shortRef := [][]float64{nil, short, nil}
	lab := []bool{false, true, false}
	cfg := Config{Iterations: 3, Mu: 0.5, Nu: 0.01, Workers: 2}
	flat := func() []float64 {
		X := flatUniform(3)
		X[0], X[1], X[2] = 0.6, 0.3, 0.1
		return X
	}

	cases := []struct {
		name string
		want string
		// run calls one entry point and reports whether its beliefs
		// still hold what the caller passed in.
		run func() (untouched bool, err error)
	}{
		{"Run/reference row", "reference row 1 has length 2", func() (bool, error) {
			X := [][]float64{nil, dist(0.6, 0.3, 0.1), nil}
			_, err := Run(g, X, shortRef, lab, cfg)
			return X[0] == nil && X[1][0] == 0.6, err
		}},
		{"Run/belief row", "belief row 1 has length 2", func() (bool, error) {
			X := [][]float64{nil, dist(0.5, 0.5), nil}
			_, err := Run(g, X, goodRef, lab, cfg)
			return X[0] == nil && X[1][0] == 0.5, err
		}},
		{"RunFlat/reference row", "reference row 1 has length 2", func() (bool, error) {
			X := flat()
			_, err := RunFlat(g, X, shortRef, lab, cfg)
			return X[0] == 0.6 && X[Y] == 1.0/3, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			untouched, err := tc.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if !untouched {
				t.Error("beliefs were modified before the error was returned")
			}
		})
	}
}

// nonUniformProblem builds a random propagation problem with non-uniform
// starting beliefs, so every sweep moves every row and any change to the
// kernel's arithmetic shows up in the bits.
func nonUniformProblem(rng *rand.Rand, n, k int) (*graph.Graph, []float64, [][]float64, []bool) {
	const Y = corpus.NumTags
	g, X, xref, labelled := flatProblem(rng, n, k)
	for v := 0; v < n; v++ {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		row := X[v*Y : v*Y+Y]
		row[0], row[1], row[2] = a, b-a, 1-b
	}
	return g, X, xref, labelled
}

// TestLossEverySchedule pins the LossEvery contract on the flat path: -1
// records nothing, N records the initial point, every Nth sweep, and the
// final sweep, and every recorded value matches the legacy every-sweep
// schedule bit for bit.
func TestLossEverySchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g, X0, xref, labelled := nonUniformProblem(rng, 80, 4)
	base := Config{Mu: 0.2, Nu: 0.05, Iterations: 5, Workers: 2}
	full := append([]float64(nil), X0...)
	fullRes, err := RunFlat(g, full, xref, labelled, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullRes.Loss) != base.Iterations+1 {
		t.Fatalf("legacy schedule recorded %d losses, want %d", len(fullRes.Loss), base.Iterations+1)
	}

	never := base
	never.LossEvery = -1
	X := append([]float64(nil), X0...)
	res, err := RunFlat(g, X, xref, labelled, never)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != nil {
		t.Fatalf("LossEvery=-1 recorded %d losses", len(res.Loss))
	}
	for i := range X {
		if X[i] != full[i] { // lint:checked loss schedule must not change beliefs
			t.Fatal("LossEvery=-1 changed the propagation result")
		}
	}

	periodic := base
	periodic.LossEvery = 2
	X = append([]float64(nil), X0...)
	res, err = RunFlat(g, X, xref, labelled, periodic)
	if err != nil {
		t.Fatal(err)
	}
	// Iterations=5, N=2: recorded after sweeps 0, 2, 4, and the final 5th.
	wantAt := []int{0, 2, 4, 5}
	if len(res.Loss) != len(wantAt) {
		t.Fatalf("LossEvery=2 recorded %d losses, want %d", len(res.Loss), len(wantAt))
	}
	for i, at := range wantAt {
		if res.Loss[i] != fullRes.Loss[at] { // lint:checked recorded losses must be bit-exact
			t.Fatalf("LossEvery=2 loss %d (after sweep %d) is %v, legacy has %v",
				i, at, res.Loss[i], fullRes.Loss[at])
		}
	}
}

// assertSameResult compares two propagation Results bit for bit.
func assertSameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.MaxDelta != want.MaxDelta { // lint:checked equivalence check is exact by design
		t.Fatalf("%s: MaxDelta %v, want %v", tag, got.MaxDelta, want.MaxDelta)
	}
	if len(got.Loss) != len(want.Loss) {
		t.Fatalf("%s: %d losses, want %d", tag, len(got.Loss), len(want.Loss))
	}
	for i := range got.Loss {
		if got.Loss[i] != want.Loss[i] { // lint:checked equivalence check is exact by design
			t.Fatalf("%s: loss %d is %v, want %v", tag, i, got.Loss[i], want.Loss[i])
		}
	}
}

func TestDistributionsStayNormalized(t *testing.T) {
	// Property: if X and X_ref rows are distributions, every update keeps
	// rows summing to 1 (the update is a convex combination of
	// distributions).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := &graph.Graph{Neighbors: make([][]graph.Edge, n), K: 3}
		for i := 0; i < n; i++ {
			v := corpus.NGram(string(rune('a' + i)))
			g.Vertices = append(g.Vertices, v)
			for j := 0; j < 1+rng.Intn(3); j++ {
				to := rng.Intn(n)
				if to != i {
					g.Neighbors[i] = append(g.Neighbors[i], graph.Edge{To: int32(to), Weight: rng.Float64()})
				}
			}
		}
		randDist := func() []float64 {
			a, b, c := rng.Float64()+0.01, rng.Float64()+0.01, rng.Float64()+0.01
			s := a + b + c
			return []float64{a / s, b / s, c / s}
		}
		X := make([][]float64, n)
		xref := make([][]float64, n)
		lab := make([]bool, n)
		for i := 0; i < n; i++ {
			X[i] = randDist()
			if rng.Intn(2) == 0 {
				lab[i] = true
				xref[i] = randDist()
			}
		}
		if _, err := Run(g, X, xref, lab, Config{Iterations: 3, Mu: rng.Float64(), Nu: rng.Float64()}); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range X[i] {
				if v < -1e-12 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLossDecreasesMonotonically(t *testing.T) {
	// The Jacobi iteration on this convex objective should reduce the loss
	// from the initial point over the first sweeps on typical instances.
	rng := rand.New(rand.NewSource(42))
	n := 20
	g := &graph.Graph{Neighbors: make([][]graph.Edge, n), K: 3}
	for i := 0; i < n; i++ {
		g.Vertices = append(g.Vertices, corpus.NGram(string(rune('a'+i))))
		for j := 0; j < 3; j++ {
			to := rng.Intn(n)
			if to != i {
				g.Neighbors[i] = append(g.Neighbors[i], graph.Edge{To: int32(to), Weight: 0.5 + rng.Float64()/2})
			}
		}
	}
	X := make([][]float64, n)
	xref := make([][]float64, n)
	lab := make([]bool, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()
		X[i] = []float64{a, (1 - a) / 2, (1 - a) / 2}
		if i%3 == 0 {
			lab[i] = true
			xref[i] = []float64{0, 1, 0}
		}
	}
	res, err := Run(g, X, xref, lab, Config{Iterations: 10, Mu: 0.1, Nu: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss[len(res.Loss)-1] >= res.Loss[0] {
		t.Errorf("loss did not decrease: %v", res.Loss)
	}
}

func TestFixedPointSatisfiesUpdate(t *testing.T) {
	// Iterate to convergence; then one more sweep must not change X
	// beyond numerical noise (X is a fixed point of Eq. 2).
	g := chainGraph(5)
	n := 5
	X := make([][]float64, n)
	xref := make([][]float64, n)
	lab := make([]bool, n)
	lab[0] = true
	xref[0] = dist(0.8, 0.1, 0.1)
	res, err := Run(g, X, xref, lab, Config{Iterations: 200, Mu: 0.3, Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDelta > 1e-10 {
		t.Fatalf("not converged: delta %g", res.MaxDelta)
	}
	before := make([][]float64, n)
	for i := range X {
		before[i] = append([]float64(nil), X[i]...)
	}
	if _, err := Run(g, X, xref, lab, Config{Iterations: 1, Mu: 0.3, Nu: 0.1}); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		for y := range X[i] {
			if math.Abs(X[i][y]-before[i][y]) > 1e-9 {
				t.Errorf("fixed point violated at %d/%d", i, y)
			}
		}
	}
}

func TestIsolatedVertexWithZeroNu(t *testing.T) {
	// An unlabelled vertex with no neighbours and nu=0 must keep its
	// distribution (kappa would be 0).
	g := &graph.Graph{
		Vertices:  []corpus.NGram{"a"},
		Neighbors: [][]graph.Edge{nil},
	}
	X := [][]float64{dist(0.7, 0.2, 0.1)}
	xref := [][]float64{nil}
	if _, err := Run(g, X, xref, []bool{false}, Config{Iterations: 3, Mu: 1, Nu: 0}); err != nil {
		t.Fatal(err)
	}
	if X[0][0] != 0.7 {
		t.Errorf("isolated vertex changed: %v", X[0])
	}
}

func TestLossComponents(t *testing.T) {
	g := chainGraph(2)
	X := [][]float64{dist(1, 0, 0), dist(0, 1, 0)}
	xref := [][]float64{dist(0, 0, 1), nil}
	lab := []bool{true, false}
	// mu=0, nu=0: only the labelled term: ‖(1,0,0)−(0,0,1)‖² = 2.
	c := Loss(g, X, xref, lab, Config{})
	if math.Abs(c-2) > 1e-12 {
		t.Errorf("labelled-only loss = %g, want 2", c)
	}
	// mu=1: add w·‖X0−X1‖² = 2 over the single edge.
	c = Loss(g, X, xref, lab, Config{Mu: 1})
	if math.Abs(c-4) > 1e-12 {
		t.Errorf("loss with mu = %g, want 4", c)
	}
}

func BenchmarkPropagate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	g := &graph.Graph{Neighbors: make([][]graph.Edge, n), K: 10}
	for i := 0; i < n; i++ {
		g.Vertices = append(g.Vertices, corpus.NGram(string(rune(i))))
		for j := 0; j < 10; j++ {
			g.Neighbors[i] = append(g.Neighbors[i], graph.Edge{To: int32(rng.Intn(n)), Weight: rng.Float64()})
		}
	}
	X := make([][]float64, n)
	xref := make([][]float64, n)
	lab := make([]bool, n)
	for i := 0; i < n; i++ {
		lab[i] = i%2 == 0
		if lab[i] {
			xref[i] = dist(0.2, 0.2, 0.6)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range X {
			X[v] = nil
		}
		if _, err := Run(g, X, xref, lab, Config{Iterations: 3, Mu: 1e-6, Nu: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}
