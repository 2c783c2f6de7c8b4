package crf

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/optimize"
)

// Trainer configures conditional log-likelihood training.
type Trainer struct {
	// Order of the chain (default Order2, as used for the paper's
	// headline results).
	Order Order
	// L2 is the coefficient of the L2 penalty 0.5·L2·‖w‖² (default 1.0).
	L2 float64
	// MaxIterations bounds L-BFGS iterations (default 100).
	MaxIterations int
	// Workers is the number of goroutines used for the gradient
	// (default min(GOMAXPROCS, 8); gradient buffers are dense, so each
	// worker costs O(#parameters) memory).
	Workers int
	// BIO enables the structural O→I constraint (default true via NewTrainer).
	BIO bool
	// Progress, if non-nil, receives one line per L-BFGS iteration.
	Progress func(iter int, nll float64)
}

// NewTrainer returns a trainer with the defaults used in the experiments.
func NewTrainer(order Order) *Trainer {
	return &Trainer{Order: order, L2: 1.0, MaxIterations: 100, BIO: true}
}

// Train fits a CRF on compiled labelled instances. numFeatures is the size
// of the (frozen) feature alphabet the instances were compiled against.
func (tr *Trainer) Train(data []*Instance, numFeatures int) (*Model, error) {
	order := tr.Order
	if order != Order1 && order != Order2 {
		order = Order2
	}
	if numFeatures <= 0 {
		return nil, fmt.Errorf("crf: numFeatures = %d", numFeatures)
	}
	for i, in := range data {
		if in.Tags == nil {
			return nil, fmt.Errorf("crf: training instance %d is unlabelled", i)
		}
		if len(in.Tags) != len(in.Features) {
			return nil, fmt.Errorf("crf: instance %d has %d tags for %d positions", i, len(in.Tags), len(in.Features))
		}
		for j, feats := range in.Features {
			for _, f := range feats {
				if int(f) >= numFeatures {
					return nil, fmt.Errorf("crf: instance %d position %d has feature id %d, but the alphabet holds %d features", i, j, f, numFeatures)
				}
			}
		}
	}
	S := numStates(order)
	l2 := tr.L2
	if l2 <= 0 {
		l2 = 1.0
	}
	maxIter := tr.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	workers := tr.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}

	obj := &objective{
		data:    data,
		tmpl:    Model{Order: order, NumFeatures: numFeatures, S: S, BIO: tr.BIO},
		l2:      l2,
		workers: workers,
	}
	x := make([]float64, numFeatures*S+S*S+S)
	var cb func(int, float64) bool
	if tr.Progress != nil {
		cb = func(iter int, f float64) bool {
			tr.Progress(iter, f)
			return true
		}
	}
	if _, err := optimize.LBFGS(obj, x, optimize.LBFGSOptions{
		MaxIterations: maxIter,
		FuncTol:       1e-7,
		Callback:      cb,
	}); err != nil {
		return nil, fmt.Errorf("crf: training: %w", err)
	}
	m := obj.view(x)
	// Copy weights out of the optimizer's buffer.
	m.W = append([]float64(nil), m.W...)
	m.T = append([]float64(nil), m.T...)
	m.Start = append([]float64(nil), m.Start...)
	return &m, nil
}

// objective is the negated conditional log-likelihood with L2 penalty,
// parallelized over sentences.
type objective struct {
	data    []*Instance
	tmpl    Model
	l2      float64
	workers int

	gradBufs [][]float64 // per-worker dense gradient buffers, reused
	// expT and expStart hold exp of the transition and start weights of
	// the point being evaluated, with forbidden entries exactly 0; the
	// workers share them read-only.
	expT, expStart []float64
}

// view maps a parameter vector to a Model sharing its memory.
func (o *objective) view(x []float64) Model {
	m := o.tmpl
	nW := m.NumFeatures * m.S
	m.W = x[:nW]
	m.T = x[nW : nW+m.S*m.S]
	m.Start = x[nW+m.S*m.S:]
	return m
}

// Eval implements optimize.Objective.
func (o *objective) Eval(x, grad []float64) float64 {
	m := o.view(x)
	if o.gradBufs == nil {
		// Zeroed here, and re-zeroed by the fold below as it reads them.
		o.gradBufs = make([][]float64, o.workers)
		for w := range o.gradBufs {
			o.gradBufs[w] = make([]float64, len(x))
		}
	}
	o.potentials(&m)

	nlls := make([]float64, o.workers)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gm := o.view(o.gradBufs[w]) // gradient views share layout with x
			var nll float64
			for i := w; i < len(o.data); i += o.workers {
				nll += sentenceGradient(&m, o.expT, o.expStart, o.data[i], gm.W, gm.T, gm.Start)
			}
			nlls[w] = nll
		}(w)
	}
	wg.Wait()

	var f float64
	for _, v := range nlls {
		f += v
	}
	// One pass folds the workers' gradients in worker order, adds the L2
	// penalty's gradient and objective terms, and zeroes the buffers for
	// the next call: per element the same additions in the same order as
	// zeroing grad, summing each buffer, then adding the penalty.
	l2 := o.l2
	for i, v := range x {
		var g float64
		for _, b := range o.gradBufs {
			g += b[i]
			b[i] = 0
		}
		f += 0.5 * l2 * v * v
		grad[i] = g + l2*v
	}
	return f
}

// potentials fills o.expT and o.expStart from m's transition and start
// weights (Model.expPotentials). A weight that overflows exp turns into an
// +Inf objective through sentenceGradient's normaliser check.
func (o *objective) potentials(m *Model) {
	if o.expT == nil {
		o.expT = make([]float64, m.S*m.S)
		o.expStart = make([]float64, m.S)
	}
	m.expPotentials(o.expT, o.expStart)
}

// sentenceGradient accumulates ∂NLL/∂θ for one sentence into the provided
// gradient views and returns the sentence NLL = logZ − score(gold path).
//
// expT and expStart are the exponentiated transition and start weights
// (objective.potentials). The marginals come from scaledForwardBackward:
// the node marginal is α̂ᵢ[s]·β̂ᵢ[s] and the edge marginal
// α̂ᵢ₋₁[p]·expT[p,c]·potᵢ[c] over the kernel's rescaled pot. The empirical
// counts are folded into the same pass, so each active feature's gradient
// row is touched once per position.
//
// A normaliser that is 0 or not finite (or a backward row that overflows)
// can only come from extreme trial weights: the kernel then returns +Inf
// without touching the gradient, and the line search rejects the step.
//
//graphner:noalloc warm calls reuse the pooled lattices; TestSentenceGradientAllocGuard measures it
//graphner:nonblocking
func sentenceGradient(m *Model, expT, expStart []float64, in *Instance, gW, gT, gStart []float64) float64 {
	n := in.Len()
	if n == 0 {
		return 0
	}
	S := m.S
	sc := acquireScratch(n, S)
	defer sc.release()
	pot := sc.mat(0, n, S)
	alpha := sc.mat(1, n, S)
	beta := sc.mat(2, n, S)
	marg, _ := sc.bufs(n, S)
	m.latticeInto(in, pot)
	// The gold path's score reads the emission scores before the kernel
	// exponentiates them in place.
	goldScore := m.pathScore(in, pot)
	logZ, ok := scaledForwardBackward(expT, expStart, pot, alpha, beta)
	if !ok {
		return math.Inf(1)
	}

	// Gradient: expected minus empirical counts, one pass per position.
	prev := -1
	for i := 0; i < n; i++ {
		gold := m.stateFor(tagBefore(in, i), in.Tags[i])
		for s := range marg {
			marg[s] = alpha[i][s] * beta[i][s]
		}
		marg[gold]--
		for _, fid := range in.Features[i] {
			if fid < 0 {
				continue
			}
			row := gW[int(fid)*S : int(fid)*S+S : int(fid)*S+S]
			for s, v := range marg {
				row[s] += v
			}
		}
		if i == 0 {
			for s, v := range marg {
				gStart[s] += v
			}
		} else {
			for p, ap := range alpha[i-1] {
				tp := expT[p*S : (p+1)*S : (p+1)*S]
				row := gT[p*S : (p+1)*S : (p+1)*S]
				for c, v := range pot[i] {
					row[c] += ap * tp[c] * v
				}
			}
			gT[prev*S+gold]--
		}
		prev = gold
	}
	return logZ - goldScore
}
