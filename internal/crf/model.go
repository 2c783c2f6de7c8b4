// Package crf implements the linear-chain conditional random fields that
// serve as GraphNER's base models (the paper's stand-ins for BANNER and
// BANNER-ChemDNER). It supports first- and second-order chains — the
// second order realized by expanding the state space to tag pairs — with
// conditional log-likelihood training via L-BFGS, one scaled
// probability-space forward–backward (scaledForwardBackward) for both the
// training gradient and the per-token posterior marginals, and Viterbi
// decoding both over model scores and over arbitrary externally supplied
// node potentials (the re-decoding step of GraphNER's Algorithm 1, line 9).
package crf

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/corpus"
)

// Order selects the Markov order of the chain.
type Order int

// Supported chain orders.
const (
	Order1 Order = 1 // states are BIO tags
	Order2 Order = 2 // states are (previous tag, current tag) pairs
)

// Instance is one compiled training or test sentence: per-position active
// observation feature ids, plus gold tags (nil for unlabelled data).
type Instance struct {
	Features [][]int32
	Tags     []corpus.Tag
}

// Len returns the number of positions.
func (in *Instance) Len() int { return len(in.Features) }

// Model is a trained linear-chain CRF.
type Model struct {
	Order       Order
	NumFeatures int
	// S is the number of expanded states: 3 for order 1, 9 for order 2.
	S int
	// W holds emission weights indexed by featureID*S + state.
	W []float64
	// T holds transition weights indexed by prevState*S + state.
	T []float64
	// Start holds start-state weights.
	Start []float64
	// BIO, when true, forbids decoding transitions O→I and start-I.
	BIO bool
}

var negInf = math.Inf(-1)

// numStates returns the expanded state count for an order.
func numStates(o Order) int {
	if o == Order2 {
		return corpus.NumTags * corpus.NumTags
	}
	return corpus.NumTags
}

// stateTag maps an expanded state to its current BIO tag.
func (m *Model) stateTag(s int) corpus.Tag {
	if m.Order == Order2 {
		return corpus.Tag(s % corpus.NumTags)
	}
	return corpus.Tag(s)
}

// statePrevTag maps an order-2 expanded state to its previous BIO tag.
func statePrevTag(s int) corpus.Tag { return corpus.Tag(s / corpus.NumTags) }

// transitionOK reports whether prev→cur is structurally permitted.
// For order 2 the pair chaining constraint applies: (a,b) → (b,c).
// With BIO enabled, the tag transition O→I is also forbidden.
func (m *Model) transitionOK(prev, cur int) bool {
	if m.Order == Order2 {
		if corpus.Tag(prev%corpus.NumTags) != statePrevTag(cur) {
			return false
		}
	}
	if m.BIO {
		pt, ct := m.stateTag(prev), m.stateTag(cur)
		if pt == corpus.O && ct == corpus.I {
			return false
		}
	}
	return true
}

// startOK reports whether s may begin a sequence. The first tag cannot be
// I under the BIO constraint; for order 2 the embedded previous tag of a
// start state must be O (virtual out-of-sentence tag).
func (m *Model) startOK(s int) bool {
	if m.Order == Order2 && statePrevTag(s) != corpus.O {
		return false
	}
	if m.BIO && m.stateTag(s) == corpus.I {
		return false
	}
	return true
}

// stateFor maps a (prevTag, curTag) pair to the expanded state id.
func (m *Model) stateFor(prev, cur corpus.Tag) int {
	if m.Order == Order2 {
		return int(prev)*corpus.NumTags + int(cur)
	}
	return int(cur)
}

// emissionScores fills scores[s] with the sum of emission weights of the
// active features at one position. scores must have length m.S.
func (m *Model) emissionScores(feats []int32, scores []float64) {
	for s := range scores {
		scores[s] = 0
	}
	S := m.S
	for _, f := range feats {
		if f < 0 {
			continue
		}
		base := int(f) * S
		for s := 0; s < S; s++ {
			scores[s] += m.W[base+s]
		}
	}
}

// latticeScratch pools the per-sentence score lattices of inference and
// training: capacity for three n×S float matrices (emission plus
// forward/backward or Viterbi), two length-S staging vectors, and one n×S
// int32 backpointer matrix. Per-sentence inference borrows one from
// latticePool instead of allocating O(n·S) matrices per call.
type latticeScratch struct {
	flat  []float64
	rows  [][]float64
	ints  []int32
	irows [][]int32
}

var latticePool = sync.Pool{New: func() any { return new(latticeScratch) }}

// acquireScratch returns a scratch resized for n positions × S states.
//
//graphner:noalloc warm calls recycle pooled backing; growth is justified below
//graphner:nonblocking
func acquireScratch(n, S int) *latticeScratch {
	sc := latticePool.Get().(*latticeScratch)
	need := 3*n*S + 2*S
	if cap(sc.flat) < need {
		sc.flat = make([]float64, need) // lint:checked noalloc: capacity-guarded growth on first sight of a longer sentence; TestPosteriorsAllocGuard pins warm calls at zero
	}
	sc.flat = sc.flat[:need]
	if cap(sc.rows) < 3*n {
		sc.rows = make([][]float64, 3*n) // lint:checked noalloc: same capacity-guarded growth as flat above
	}
	sc.rows = sc.rows[:3*n]
	return sc
}

func (sc *latticeScratch) release() { latticePool.Put(sc) }

// mat returns the idx-th (0..2) n×S matrix view over the scratch backing.
// Contents are stale; callers overwrite (emission) or negInf-fill (DP).
func (sc *latticeScratch) mat(idx, n, S int) [][]float64 {
	rows := sc.rows[idx*n : (idx+1)*n]
	base := idx * n * S
	for i := range rows {
		rows[i] = sc.flat[base+i*S : base+(i+1)*S : base+(i+1)*S]
	}
	return rows
}

// bufs returns the two length-S staging vectors following the matrices.
func (sc *latticeScratch) bufs(n, S int) ([]float64, []float64) {
	b := sc.flat[3*n*S:]
	return b[:S:S], b[S : 2*S : 2*S]
}

// intMat returns a zeroed n×S int32 matrix (Viterbi backpointers).
//
//graphner:noalloc warm calls reuse the pooled backing; growth is justified below
//graphner:nonblocking
func (sc *latticeScratch) intMat(n, S int) [][]int32 {
	need := n * S
	if cap(sc.ints) < need {
		sc.ints = make([]int32, need) // lint:checked noalloc: capacity-guarded growth, amortized across pooled reuse; TestDecodeAllocGuard pins warm decodes at zero
	} else {
		sc.ints = sc.ints[:need]
		clear(sc.ints)
	}
	if cap(sc.irows) < n {
		sc.irows = make([][]int32, n) // lint:checked noalloc: same capacity-guarded growth as ints above
	}
	rows := sc.irows[:n]
	for i := range rows {
		rows[i] = sc.ints[i*S : (i+1)*S : (i+1)*S]
	}
	return rows
}

// fillNegInf resets a DP matrix to the log-space additive identity.
func fillNegInf(m [][]float64) {
	for _, row := range m {
		for i := range row {
			row[i] = negInf
		}
	}
}

// latticeInto fills emit (n rows of length S) with per-position emission
// scores for the instance.
func (m *Model) latticeInto(in *Instance, emit [][]float64) {
	for i := range emit {
		m.emissionScores(in.Features[i], emit[i])
	}
}

// maxStates is the largest S (order 2's tag pairs): inference keeps the
// exponentiated transition and start weights in stack arrays of this size.
const maxStates = corpus.NumTags * corpus.NumTags

// expPotentials fills expT (length S·S) and expStart (length S) with exp
// of m's transition and start weights, exactly 0 where the chain or the
// BIO constraint forbids the move. A weight above ~709 overflows to +Inf,
// which scaledForwardBackward's normaliser check reports.
func (m *Model) expPotentials(expT, expStart []float64) {
	S := m.S
	for p := 0; p < S; p++ {
		for c := 0; c < S; c++ {
			expT[p*S+c] = 0
			if m.transitionOK(p, c) {
				expT[p*S+c] = math.Exp(m.T[p*S+c]) // lint:checked overflow to +Inf is caught by scaledForwardBackward's normaliser check
			}
		}
	}
	for s := 0; s < S; s++ {
		expStart[s] = 0
		if m.startOK(s) {
			expStart[s] = math.Exp(m.Start[s]) // lint:checked overflow to +Inf is caught by scaledForwardBackward's normaliser check
		}
	}
}

// sumProduct runs scaledForwardBackward for inference, with m's
// exponentiated transition and start weights computed per call into stack
// arrays, so Model carries no derived state and a call allocates nothing.
func (m *Model) sumProduct(pot, alpha, beta [][]float64) (logZ float64, ok bool) {
	S := m.S
	var expT [maxStates * maxStates]float64
	var expStart [maxStates]float64
	m.expPotentials(expT[:S*S], expStart[:S])
	return scaledForwardBackward(expT[:S*S], expStart[:S], pot, alpha, beta)
}

// scaledForwardBackward is the CRF's one sum-product kernel: a scaled
// (Rabiner-style) forward–backward in probability space, shared by
// training (sentenceGradient) and inference (Posteriors, PosteriorsInto,
// LogLikelihood, NBest).
//
// pot holds the n×S emission scores on entry. expT and expStart are the
// exponentiated transition and start weights (expPotentials). Per position
// i the scores are shifted by their maximum mᵢ before exponentiation, so
// the only transcendental calls are S exps and one log per position. Each
// forward row α̂ᵢ is normalised by its sum cᵢ, the backward recursion
// divides by the same cᵢ, and logZ = Σᵢ (log cᵢ + mᵢ). On return the node
// marginal is α̂ᵢ[s]·β̂ᵢ[s], and row i ≥ 1 of pot holds potᵢ[c]·β̂ᵢ[c]/cᵢ,
// so the edge marginal into position i is α̂ᵢ₋₁[p]·expT[p,c]·potᵢ[c].
// With beta nil only the forward pass runs: logZ is all that
// LogLikelihood and NBest need.
//
// ok is false, logZ NaN, and alpha and beta meaningless when a normaliser
// is 0 or not finite or a backward row overflows. Only weights far outside
// what training produces cause it (see TestPosteriorsDegenerate).
func scaledForwardBackward(expT, expStart []float64, pot, alpha, beta [][]float64) (logZ float64, ok bool) {
	S := len(expStart)
	for _, row := range pot {
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		for s, v := range row {
			row[s] = math.Exp(v - mx) // lint:checked v ≤ mx, so the argument is ≤ 0 and the result lies in [0, 1]
		}
		logZ += mx
	}

	// Forward: α̂ᵢ[c] = potᵢ[c]·Σₚ α̂ᵢ₋₁[p]·expT[p,c], normalised by its
	// row sum cᵢ. Row i of pot is divided by cᵢ too, the form in which the
	// backward pass and the edge marginals use it.
	for i, a := range alpha {
		if i == 0 {
			for s := range a {
				a[s] = expStart[s] * pot[0][s]
			}
		} else {
			clear(a)
			for p, ap := range alpha[i-1] {
				tp := expT[p*S : (p+1)*S : (p+1)*S]
				for c := range a {
					a[c] += ap * tp[c]
				}
			}
			for c, v := range pot[i] {
				a[c] *= v
			}
		}
		c := 0.0
		for _, v := range a {
			c += v
		}
		if !(c > 0 && c <= math.MaxFloat64) {
			return math.NaN(), false
		}
		inv := 1 / c
		for s := range a {
			a[s] *= inv
			pot[i][s] *= inv
		}
		logZ += math.Log(c)
	}
	if beta == nil {
		return logZ, true
	}

	// Backward: β̂ᵢ[p] = Σ_c expT[p,c]·potᵢ₊₁[c]·β̂ᵢ₊₁[c]/cᵢ₊₁. Row i+1 of
	// pot is multiplied by β̂ᵢ₊₁ in place, the factor the edge marginals
	// into position i+1 need.
	n := len(pot)
	for s := range beta[n-1] {
		beta[n-1][s] = 1
	}
	for i := n - 2; i >= 0; i-- {
		next := pot[i+1]
		for c := range next {
			next[c] *= beta[i+1][c]
		}
		sum := 0.0
		for p := range beta[i] {
			tp := expT[p*S : (p+1)*S : (p+1)*S]
			b := 0.0
			for c, v := range next {
				b += tp[c] * v
			}
			beta[i][p] = b
			sum += b
		}
		if !(sum <= math.MaxFloat64) {
			return math.NaN(), false
		}
	}
	return logZ, true
}

// Posteriors returns the per-position marginal distribution over BIO tags,
// P(t_i = y | x), for the instance. Each row sums to 1. The returned rows
// share one flat backing array filled by PosteriorsInto, so the two agree
// bit for bit.
func (m *Model) Posteriors(in *Instance) [][]float64 {
	const Y = corpus.NumTags
	n := in.Len()
	if n == 0 {
		return nil
	}
	backing := make([]float64, n*Y)
	if err := m.PosteriorsInto(in, backing); err != nil {
		panic(err) // unreachable: backing holds exactly n·Y entries
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = backing[i*Y : (i+1)*Y : (i+1)*Y]
	}
	return out
}

// normalize scales row to sum to 1; a zero row becomes uniform.
func normalize(row []float64) {
	if len(row) == 0 {
		return
	}
	var sum float64
	for _, v := range row {
		sum += v
	}
	if sum <= 0 || math.IsNaN(sum) {
		u := 1 / float64(len(row))
		for i := range row {
			row[i] = u
		}
		return
	}
	for i := range row {
		row[i] /= sum
	}
}

// LogLikelihood returns the conditional log-likelihood log p(tags|x) of a
// labelled instance under the model. It is NaN when the normaliser is 0 or
// not finite in float64 (see scaledForwardBackward).
func (m *Model) LogLikelihood(in *Instance) float64 {
	if in.Len() == 0 {
		return 0
	}
	if in.Tags == nil {
		panic("crf: LogLikelihood on unlabelled instance")
	}
	n, S := in.Len(), m.S
	sc := acquireScratch(n, S)
	defer sc.release()
	pot := sc.mat(0, n, S)
	m.latticeInto(in, pot)
	score := m.pathScore(in, pot)
	logZ, _ := m.sumProduct(pot, sc.mat(1, n, S), nil)
	return score - logZ
}

// pathScore returns the unnormalized log score of the gold path.
func (m *Model) pathScore(in *Instance, emit [][]float64) float64 {
	prevTag := corpus.O
	score := 0.0
	for i := 0; i < in.Len(); i++ {
		s := m.stateFor(prevTag, in.Tags[i])
		if i == 0 {
			score += m.Start[s]
		} else {
			ps := m.stateFor(tagBefore(in, i-1), in.Tags[i-1])
			score += m.T[ps*m.S+s]
		}
		score += emit[i][s]
		prevTag = in.Tags[i]
	}
	return score
}

// tagBefore returns the tag preceding position i (O before the sentence).
func tagBefore(in *Instance, i int) corpus.Tag {
	if i <= 0 {
		return corpus.O
	}
	return in.Tags[i-1]
}

// Decode returns the Viterbi-optimal tag sequence under the model.
func (m *Model) Decode(in *Instance) []corpus.Tag {
	if in.Len() == 0 {
		return nil
	}
	n := in.Len()
	S := m.S
	sc := acquireScratch(n, S)
	emit := sc.mat(0, n, S)
	delta := sc.mat(1, n, S)
	back := sc.intMat(n, S)
	m.latticeInto(in, emit)
	fillNegInf(delta)
	for s := 0; s < S; s++ {
		if m.startOK(s) {
			delta[0][s] = m.Start[s] + emit[0][s]
		}
	}
	for i := 1; i < n; i++ {
		for cur := 0; cur < S; cur++ {
			best, arg := negInf, -1
			for prev := 0; prev < S; prev++ {
				if !m.transitionOK(prev, cur) || math.IsInf(delta[i-1][prev], -1) {
					continue
				}
				if v := delta[i-1][prev] + m.T[prev*S+cur]; v > best {
					best, arg = v, prev
				}
			}
			if arg >= 0 {
				delta[i][cur] = best + emit[i][cur]
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
	tags := make([]corpus.Tag, n)
	for i := n - 1; i >= 0; i-- {
		tags[i] = m.stateTag(arg)
		arg = int(back[i][arg])
	}
	sc.release()
	return tags
}

// DecodeWithPotentials runs Viterbi over externally supplied per-position
// tag probability distributions (node potentials) and a tag-level
// transition probability matrix — exactly the final step of GraphNER's
// Algorithm 1, where potentials are the α-mixture of CRF posteriors and
// propagated graph beliefs. Probabilities are combined in log space; zero
// probabilities are floored to keep the lattice connected. If bio is true,
// O→I transitions and an initial I are forbidden. It is equivalent to
// DecodeWithPotentialsT with transition temperature 1.
func DecodeWithPotentials(potentials [][]float64, trans [][]float64, bio bool) ([]corpus.Tag, error) {
	return DecodeWithPotentialsT(potentials, trans, bio, 1)
}

// DecodeWithPotentialsT is DecodeWithPotentials with the transition
// log-probabilities scaled by power (0 < power ≤ 1). The node potentials
// handed to GraphNER's final Viterbi are posterior marginals, which
// already reflect the chain's transition structure; applying the
// transition matrix at full strength therefore double-counts it and
// suppresses confident single-token mentions. A power below 1 tempers the
// transitions; GraphNER selects it by cross-validation alongside the
// paper's other hyper-parameters.
func DecodeWithPotentialsT(potentials [][]float64, trans [][]float64, bio bool, power float64) ([]corpus.Tag, error) {
	n := len(potentials)
	if n == 0 {
		return nil, nil
	}
	S := corpus.NumTags
	for i, row := range potentials {
		if len(row) != S {
			return nil, fmt.Errorf("crf: potentials row %d has %d entries, want %d", i, len(row), S)
		}
	}
	if len(trans) != S {
		return nil, fmt.Errorf("crf: transition matrix has %d rows, want %d", len(trans), S)
	}
	if power <= 0 || power > 1 {
		return nil, fmt.Errorf("crf: transition power %g outside (0,1]", power)
	}
	lp := logPotential
	lt := func(p float64) float64 { return power * logPotential(p) }
	sc := acquireScratch(n, S)
	delta := sc.mat(0, n, S)
	back := sc.intMat(n, S)
	fillNegInf(delta)
	for s := 0; s < S; s++ {
		if bio && corpus.Tag(s) == corpus.I {
			continue
		}
		delta[0][s] = lp(potentials[0][s])
	}
	for i := 1; i < n; i++ {
		for cur := 0; cur < S; cur++ {
			best, arg := negInf, -1
			for prev := 0; prev < S; prev++ {
				if math.IsInf(delta[i-1][prev], -1) {
					continue
				}
				if bio && corpus.Tag(prev) == corpus.O && corpus.Tag(cur) == corpus.I {
					continue
				}
				if v := delta[i-1][prev] + lt(trans[prev][cur]); v > best {
					best, arg = v, prev
				}
			}
			if arg >= 0 {
				delta[i][cur] = best + lp(potentials[i][cur])
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
	tags := make([]corpus.Tag, n)
	for i := n - 1; i >= 0; i-- {
		tags[i] = corpus.Tag(arg)
		arg = int(back[i][arg])
	}
	sc.release()
	return tags, nil
}
