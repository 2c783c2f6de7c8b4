package crf

import (
	"fmt"
	"math"

	"repro/internal/corpus"
)

// This file holds the allocation-free inference variants the serving path
// (internal/serving, cmd/graphnerd) drives at production rates. Posteriors
// is PosteriorsInto over a freshly allocated buffer, so the two agree bit
// for bit by construction. PotentialDecoder.DecodeFlat mirrors
// DecodeWithPotentialsT exactly — the only differences are who owns the
// output storage and that the tempered log-transition matrix is computed
// once instead of per decode.

// potentialFloor keeps zero node/transition probabilities from
// disconnecting the Viterbi lattice (shared by DecodeWithPotentialsT and
// the serving decoder).
const potentialFloor = 1e-12

// logPotential is log p with p floored at potentialFloor.
func logPotential(p float64) float64 {
	if p < potentialFloor {
		p = potentialFloor
	}
	return math.Log(p)
}

// PosteriorsInto computes the per-position BIO marginals P(t_i = y | x)
// into the caller's flat row-major buffer out (position i's distribution
// occupies out[i*corpus.NumTags:(i+1)*corpus.NumTags]), which must hold at
// least Len()*corpus.NumTags entries. The marginals come from
// scaledForwardBackward; a sentence whose normaliser is 0 or not finite
// gets uniform rows. The lattices come from the pool, so a warm call
// allocates nothing.
//
//graphner:noalloc checked by the contract linter; TestPosteriorsAllocGuard measures it
//graphner:nonblocking
func (m *Model) PosteriorsInto(in *Instance, out []float64) error {
	const Y = corpus.NumTags
	n := in.Len()
	if len(out) < n*Y {
		return fmt.Errorf("crf: posteriors buffer holds %d entries, need %d", len(out), n*Y) // lint:checked noalloc: cold validation failure path, never taken on a well-sized warm call
	}
	if n == 0 {
		return nil
	}
	S := m.S
	sc := acquireScratch(n, S)
	defer sc.release()
	pot, alpha, beta := sc.mat(0, n, S), sc.mat(1, n, S), sc.mat(2, n, S)
	m.latticeInto(in, pot)
	_, ok := m.sumProduct(pot, alpha, beta)
	for i := 0; i < n; i++ {
		row := out[i*Y : (i+1)*Y : (i+1)*Y]
		clear(row)
		if ok {
			for s, a := range alpha[i] {
				row[m.stateTag(s)] += a * beta[i][s]
			}
		}
		normalize(row) // a zero row, as when !ok, becomes uniform
	}
	return nil
}

// PotentialDecoder performs repeated Viterbi decodes over externally
// supplied node potentials with a fixed tag-level transition matrix — the
// serving form of DecodeWithPotentialsT, where one decoder is built per
// frozen artifact and reused for every request. The tempered
// log-transition matrix is precomputed at construction (power·log of each
// floored probability, exactly the values DecodeWithPotentialsT derives
// per call), so DecodeFlat's inner loop does no logarithms over
// transitions and, with pooled lattices, no allocations.
type PotentialDecoder struct {
	bio bool
	lt  [corpus.NumTags * corpus.NumTags]float64
}

// NewPotentialDecoder validates the transition matrix and temperature and
// precomputes the tempered log-transitions. The arguments mirror
// DecodeWithPotentialsT's.
func NewPotentialDecoder(trans [][]float64, bio bool, power float64) (*PotentialDecoder, error) {
	const S = corpus.NumTags
	if len(trans) != S {
		return nil, fmt.Errorf("crf: transition matrix has %d rows, want %d", len(trans), S)
	}
	if power <= 0 || power > 1 {
		return nil, fmt.Errorf("crf: transition power %g outside (0,1]", power)
	}
	d := &PotentialDecoder{bio: bio}
	for p := 0; p < S; p++ {
		if len(trans[p]) != S {
			return nil, fmt.Errorf("crf: transition row %d has %d entries, want %d", p, len(trans[p]), S)
		}
		for c := 0; c < S; c++ {
			d.lt[p*S+c] = power * logPotential(trans[p][c])
		}
	}
	return d, nil
}

// DecodeFlat runs Viterbi over flat row-major node potentials (position
// i's distribution at potentials[i*corpus.NumTags:]) for n positions and
// writes the optimal tags into tags[:n]. It produces exactly the sequence
// DecodeWithPotentialsT would for the same potentials, transitions, bio
// flag, and power. A warm call allocates nothing.
//
//graphner:noalloc checked by the contract linter; TestDecodeAllocGuard measures it
//graphner:nonblocking
func (d *PotentialDecoder) DecodeFlat(potentials []float64, n int, tags []corpus.Tag) error {
	const S = corpus.NumTags
	if n == 0 {
		return nil
	}
	if len(potentials) < n*S {
		return fmt.Errorf("crf: potentials hold %d entries, need %d", len(potentials), n*S) // lint:checked noalloc: cold validation failure path
	}
	if len(tags) < n {
		return fmt.Errorf("crf: tag buffer holds %d entries, need %d", len(tags), n) // lint:checked noalloc: cold validation failure path
	}
	sc := acquireScratch(n, S)
	delta := sc.mat(0, n, S)
	back := sc.intMat(n, S)
	fillNegInf(delta)
	for s := 0; s < S; s++ {
		if d.bio && corpus.Tag(s) == corpus.I {
			continue
		}
		delta[0][s] = logPotential(potentials[s])
	}
	for i := 1; i < n; i++ {
		row := potentials[i*S : (i+1)*S : (i+1)*S]
		for cur := 0; cur < S; cur++ {
			best, arg := negInf, -1
			for prev := 0; prev < S; prev++ {
				if math.IsInf(delta[i-1][prev], -1) {
					continue
				}
				if d.bio && corpus.Tag(prev) == corpus.O && corpus.Tag(cur) == corpus.I {
					continue
				}
				if v := delta[i-1][prev] + d.lt[prev*S+cur]; v > best {
					best, arg = v, prev
				}
			}
			if arg >= 0 {
				delta[i][cur] = best + logPotential(row[cur])
				back[i][cur] = int32(arg)
			}
		}
	}
	best, arg := negInf, 0
	for s := 0; s < S; s++ {
		if delta[n-1][s] > best {
			best, arg = delta[n-1][s], s
		}
	}
	for i := n - 1; i >= 0; i-- {
		tags[i] = corpus.Tag(arg)
		arg = int(back[i][arg])
	}
	sc.release()
	return nil
}
