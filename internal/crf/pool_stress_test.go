package crf

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/corpus"
)

// TestPoolStressNoCrossRequestBleed hammers the pooled inference paths
// (Posteriors, Decode, LogLikelihood — all backed by the shared
// latticePool) from many goroutines over instances of mixed lengths, and
// demands bit-identical agreement with results computed up front: serial
// Posteriors and LogLikelihood calls, and the allocating seed Decode. Any cross-request bleed — one goroutine reading
// lattice or flat-buffer residue written by another — perturbs the
// results and fails the comparison; tier 1 runs this under -race, which
// additionally catches the unsynchronized accesses themselves.
func TestPoolStressNoCrossRequestBleed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const nf = 40
	m := randomModel(rng, Order2, nf, true)

	const nInst = 24
	ins := make([]*Instance, nInst)
	wantPost := make([][][]float64, nInst)
	wantTags := make([][]corpus.Tag, nInst)
	wantLL := make([]float64, nInst)
	for i := range ins {
		// Mixed lengths so pooled buffers are constantly resized/reused
		// across goroutines, maximizing the chance residue is observable.
		ins[i] = randomInstance(rng, 1+rng.Intn(30), nf, true)
		wantPost[i] = m.Posteriors(ins[i])
		wantTags[i] = referenceDecode(m, ins[i])
		wantLL[i] = m.LogLikelihood(ins[i])
	}

	const workers = 8
	iters := 150
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < iters; it++ {
				i := r.Intn(nInst)
				switch it % 3 {
				case 0:
					got := m.Posteriors(ins[i])
					for p := range wantPost[i] {
						for y := range wantPost[i][p] {
							if got[p][y] != wantPost[i][p][y] {
								t.Errorf("worker %d: Posteriors bleed at instance %d pos %d tag %d: %v != %v",
									w, i, p, y, got[p][y], wantPost[i][p][y])
								return
							}
						}
					}
				case 1:
					got := m.Decode(ins[i])
					for p := range wantTags[i] {
						if got[p] != wantTags[i][p] {
							t.Errorf("worker %d: Decode bleed at instance %d pos %d: %v != %v",
								w, i, p, got[p], wantTags[i][p])
							return
						}
					}
				case 2:
					if got := m.LogLikelihood(ins[i]); got != wantLL[i] {
						t.Errorf("worker %d: LogLikelihood bleed at instance %d: %v != %v",
							w, i, got, wantLL[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
