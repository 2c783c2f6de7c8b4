package crf

import "math"

// This file keeps the log-space forward–backward that inference and
// training ran before both moved onto the scaled kernel
// (scaledForwardBackward), verbatim, with the allocating lattice and
// matrix helpers it used. It is the reference for
// TestSentenceGradientMatchesReference (through referenceSentenceGradient)
// and supplies the log-space helpers of the brute-force and Viterbi
// references.

// lattice computes per-position emission scores for an instance,
// allocating the matrix (compatibility path; hot paths use latticeInto
// over pooled storage).
func (m *Model) lattice(in *Instance) [][]float64 {
	n := in.Len()
	flat := make([]float64, n*m.S)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = flat[i*m.S : (i+1)*m.S]
	}
	m.latticeInto(in, out)
	return out
}

// logSumExp returns log Σ exp(x_i) guarding against -Inf inputs.
func logSumExp(xs []float64) float64 {
	max := negInf
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return negInf
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	// lint:checked sum includes exp(max-max) = 1, so Log(sum) >= 0 and finite
	return max + math.Log(sum)
}

// forwardBackward runs log-space forward-backward on the emission lattice.
// It returns alpha, beta ([n][S] log values) and logZ (compatibility path;
// hot paths use forwardBackwardInto over pooled storage).
func (m *Model) forwardBackward(emit [][]float64) (alpha, beta [][]float64, logZ float64) {
	n := len(emit)
	S := m.S
	alpha = logMatrix(n, S)
	beta = logMatrix(n, S)
	logZ = m.forwardBackwardInto(emit, alpha, beta, make([]float64, S))
	return alpha, beta, logZ
}

// forwardBackwardInto runs log-space forward-backward on the emission
// lattice, overwriting alpha and beta (any prior contents, including pool
// residue, are reset to -Inf first) and staging logSumExp terms in buf
// (length S). It returns logZ.
func (m *Model) forwardBackwardInto(emit, alpha, beta [][]float64, buf []float64) (logZ float64) {
	n := len(emit)
	S := m.S
	fillNegInf(alpha)
	fillNegInf(beta)

	for s := 0; s < S; s++ {
		if m.startOK(s) {
			alpha[0][s] = m.Start[s] + emit[0][s]
		}
	}
	for i := 1; i < n; i++ {
		for cur := 0; cur < S; cur++ {
			k := 0
			for prev := 0; prev < S; prev++ {
				if !m.transitionOK(prev, cur) || math.IsInf(alpha[i-1][prev], -1) {
					continue
				}
				buf[k] = alpha[i-1][prev] + m.T[prev*S+cur]
				k++
			}
			if k > 0 {
				alpha[i][cur] = logSumExp(buf[:k]) + emit[i][cur]
			}
		}
	}
	for s := 0; s < S; s++ {
		beta[n-1][s] = 0
	}
	for i := n - 2; i >= 0; i-- {
		for prev := 0; prev < S; prev++ {
			k := 0
			for cur := 0; cur < S; cur++ {
				if !m.transitionOK(prev, cur) || math.IsInf(beta[i+1][cur], -1) {
					continue
				}
				buf[k] = m.T[prev*S+cur] + emit[i+1][cur] + beta[i+1][cur]
				k++
			}
			if k > 0 {
				beta[i][prev] = logSumExp(buf[:k])
			}
		}
	}
	return logSumExp(alpha[n-1])
}

func logMatrix(n, s int) [][]float64 {
	flat := make([]float64, n*s)
	for i := range flat {
		flat[i] = negInf
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = flat[i*s : (i+1)*s]
	}
	return out
}
