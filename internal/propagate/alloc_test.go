package propagate

import (
	"math/rand"
	"testing"

	"repro/internal/race"
)

// TestSweepAllocGuard locks in the allocation-free propagation hot path:
// a steady-state RunFlat call over a CSR-backed graph allocates only its
// fixed per-call scaffolding (ping-pong buffer, worker deltas, loss
// history, goroutine bookkeeping) — a small constant independent of
// vertex count and sweep count. A refactor that reintroduces per-vertex
// or per-sweep allocations fails here before it reaches a profile.
func TestSweepAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	rng := rand.New(rand.NewSource(17))
	g, X, xref, labelled := warmProblem(rng, 300, 5)
	measure := func(iters int) float64 {
		cfg := Config{Mu: 0.1, Nu: 0.1, Iterations: iters, Workers: 1}
		if _, err := RunFlat(g, X, xref, labelled, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := RunFlat(g, X, xref, labelled, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, nine := measure(1), measure(9)
	// Fixed scaffolding: ping-pong buffer, deltas, loss slice, result.
	if one > 12 {
		t.Fatalf("RunFlat allocates %.1f objects for one sweep over 300 vertices, want ≤ 12", one)
	}
	// Marginal cost per extra sweep: goroutine + waitgroup bookkeeping
	// only — nothing proportional to vertices or edges.
	if perSweep := (nine - one) / 8; perSweep > 6 {
		t.Fatalf("RunFlat allocates %.1f objects per additional sweep, want ≤ 6", perSweep)
	}
}

// TestWarmSweepAllocGuard pins RunWarmFlat's allocations the way
// TestSweepAllocGuard pins RunFlat's: a fixed per-call set-up (reverse
// adjacency, frontier bitsets, worklist, row buffer, result), and per
// extra sweep only goroutine and WaitGroup bookkeeping plus the row
// buffer's occasional growth — nothing per visited vertex or per edge.
func TestWarmSweepAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	rng := rand.New(rand.NewSource(19))
	g, X0, xref, labelled := warmProblem(rng, 300, 5)
	// A few sweeps only, so the warm run below is far from converged and
	// runs exactly the sweeps it is capped at.
	if _, err := RunFlat(g, X0, xref, labelled, Config{Mu: 0.1, Nu: 0.1, Iterations: 3, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	X := make([]float64, len(X0))
	dirty := []int32{1, 2, 3}
	measure := func(iters int) float64 {
		cfg := Config{Mu: 0.1, Nu: 0.1, Tolerance: 1e-12, Iterations: iters, Workers: 1}
		run := func() {
			copy(X, X0)
			res, err := RunWarmFlat(g, X, xref, labelled, cfg, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sweeps != iters {
				t.Fatalf("warm run stopped after %d sweeps, want the cap %d", res.Sweeps, iters)
			}
		}
		run()
		return testing.AllocsPerRun(50, run)
	}
	one, nine := measure(1), measure(9)
	// Fixed set-up: CSR and reverse CSR, frontier bitsets, worklist,
	// per-worker maxima, row buffers, Touched, and the variables the
	// worker closures share.
	if one > 20 {
		t.Fatalf("RunWarmFlat allocates %.1f objects for one sweep over 300 vertices, want ≤ 20", one)
	}
	// Marginal cost per extra sweep: goroutine, closure and WaitGroups,
	// plus the row buffer growing with the frontier in early sweeps.
	if perSweep := (nine - one) / 8; perSweep > 6 {
		t.Fatalf("RunWarmFlat allocates %.1f objects per additional sweep, want ≤ 6", perSweep)
	}
}
