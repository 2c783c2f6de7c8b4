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
	g, X, xref, labelled := flatProblem(rng, 300, 5)
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
