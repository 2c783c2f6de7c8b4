// Package optimize provides the numerical optimizers used to train the
// models in this repository: L-BFGS with backtracking line search for the
// CRF's convex conditional log-likelihood, and SGD/Adam for the stochastic
// training of word embeddings and neural taggers. All optimizers minimize.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// Objective is a differentiable function handed to a batch optimizer.
type Objective interface {
	// Eval returns f(x) and writes the gradient ∇f(x) into grad, which has
	// the same length as x.
	Eval(x, grad []float64) float64
}

// LBFGSOptions configures LBFGS. Zero values select defaults.
type LBFGSOptions struct {
	// Memory is the number of (s, y) correction pairs kept (default 10).
	Memory int
	// MaxIterations bounds outer iterations (default 100).
	MaxIterations int
	// GradTol stops when the max-norm of the gradient falls below it
	// (default 1e-6).
	GradTol float64
	// FuncTol stops when the relative decrease of f between iterations
	// falls below it (default 1e-9).
	FuncTol float64
	// Callback, if non-nil, is invoked after every iteration with the
	// iteration number and current objective value; returning false stops
	// optimization early.
	Callback func(iter int, f float64) bool
}

func (o *LBFGSOptions) defaults() {
	if o.Memory <= 0 {
		o.Memory = 10
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.FuncTol <= 0 {
		o.FuncTol = 1e-9
	}
}

// ErrLineSearch reports that the backtracking line search could not find a
// step satisfying the Armijo condition; x holds the best point found.
var ErrLineSearch = errors.New("optimize: line search failed")

// LBFGS minimizes obj starting from x in place and returns the final
// objective value. The limited-memory BFGS two-loop recursion builds the
// search direction; an Armijo backtracking line search chooses step sizes.
func LBFGS(obj Objective, x []float64, opts LBFGSOptions) (float64, error) {
	opts.defaults()
	n := len(x)
	grad := make([]float64, n)
	f := obj.Eval(x, grad)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return f, fmt.Errorf("optimize: objective is %v at start", f)
	}

	m := opts.Memory
	sHist := make([][]float64, 0, m) // x_{k+1} - x_k
	yHist := make([][]float64, 0, m) // g_{k+1} - g_k
	syHist := make([]float64, 0, m)  // sᵀy; ρ = 1 / sᵀy
	yyHist := make([]float64, 0, m)  // yᵀy

	// free holds the n-vectors of correction pairs that were evicted,
	// rejected or reset, for the next pair to reuse: the history costs at
	// most 2m+2 vectors however many iterations run.
	var free [][]float64
	vec := func() []float64 {
		if k := len(free); k > 0 {
			v := free[k-1]
			free = free[:k-1]
			return v
		}
		return make([]float64, n)
	}

	dir := make([]float64, n)
	xNew := make([]float64, n)
	gradNew := make([]float64, n)
	alphaBuf := make([]float64, m)
	gNorm := maxNorm(grad)

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if gNorm < opts.GradTol {
			break
		}

		// Two-loop recursion, dir = -H·grad, in 2k+1 passes over the
		// vectors: each pass finishes one update of dir and, on the same
		// elements, starts the dot product the next update needs. Every
		// element sees the unfused loop's operations in the unfused order,
		// so dir is bit-identical to copy, k×(dot, axpy), scale by
		// γ = sᵀy / yᵀy, k×(dot, axpy), negate, and dᵀg run one by one.
		k := len(sHist)
		var dg float64
		if k == 0 {
			for i, g := range grad {
				d := -g
				dir[i] = d
				dg += d * g
			}
		} else {
			// Loop 1, newest pair first; the first pass copies grad.
			s := sHist[k-1]
			var acc float64
			for i, g := range grad {
				dir[i] = g
				acc += s[i] * g
			}
			gamma := syHist[k-1] / yyHist[k-1]
			for j := k - 1; j >= 0; j-- {
				alphaBuf[j] = 1 / syHist[j] * acc
				na, y := -alphaBuf[j], yHist[j]
				acc = 0
				if j > 0 {
					s := sHist[j-1]
					for i := range dir {
						d := dir[i] + na*y[i]
						dir[i] = d
						acc += s[i] * d
					}
					continue
				}
				// The last loop-1 pass scales by γ and starts loop 2's
				// first dot, against the oldest y.
				y0 := yHist[0]
				for i := range dir {
					d := dir[i] + na*y[i]
					d *= gamma
					dir[i] = d
					acc += y0[i] * d
				}
			}
			// Loop 2, oldest pair first; the last pass negates and forms
			// dᵀg.
			for j := 0; j < k; j++ {
				beta := 1 / syHist[j] * acc
				c, s := alphaBuf[j]-beta, sHist[j]
				acc = 0
				if j < k-1 {
					y := yHist[j+1]
					for i := range dir {
						d := dir[i] + c*s[i]
						dir[i] = d
						acc += y[i] * d
					}
					continue
				}
				for i, g := range grad {
					d := -(dir[i] + c*s[i])
					dir[i] = d
					dg += d * g
				}
			}
		}

		// Descent check; fall back to steepest descent if needed.
		if dg >= 0 {
			copy(dir, grad)
			neg(dir)
			dg = -dot(grad, grad)
			free = append(append(free, sHist...), yHist...)
			sHist, yHist = sHist[:0], yHist[:0]
			syHist, yyHist = syHist[:0], yyHist[:0]
		}

		// Backtracking Armijo line search.
		step := 1.0
		if iter == 0 && gNorm > 0 {
			step = math.Min(1.0, 1.0/gNorm)
		}
		const c1 = 1e-4
		var fNew float64
		ok := false
		for ls := 0; ls < 50; ls++ {
			for i := range x {
				xNew[i] = x[i] + step*dir[i]
			}
			fNew = obj.Eval(xNew, gradNew)
			if !math.IsNaN(fNew) && fNew <= f+c1*step*dg {
				ok = true
				break
			}
			step *= 0.5
		}
		if !ok {
			return f, ErrLineSearch
		}

		// Update correction history in one pass: s, y, sᵀy, yᵀy, the moves
		// of xNew and gradNew into x and grad, and the next max-norm. The
		// oldest pair's buffers, when the history is full, or a rejected
		// pair's go back to free.
		s, y := vec(), vec()
		var sy, yy float64
		gNorm = 0
		for i, xn := range xNew {
			gn := gradNew[i]
			si, yi := xn-x[i], gn-grad[i]
			s[i], y[i] = si, yi
			sy += si * yi
			yy += yi * yi
			x[i], grad[i] = xn, gn
			if a := math.Abs(gn); a > gNorm {
				gNorm = a
			}
		}
		if sy > 1e-12 {
			if len(sHist) == m {
				free = append(free, sHist[0], yHist[0])
				sHist, yHist = sHist[1:], yHist[1:]
				syHist, yyHist = syHist[1:], yyHist[1:]
			}
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			syHist = append(syHist, sy)
			yyHist = append(yyHist, yy)
		} else {
			free = append(free, s, y)
		}

		rel := math.Abs(f-fNew) / math.Max(math.Abs(f), 1)
		f = fNew
		if opts.Callback != nil && !opts.Callback(iter, f) {
			break
		}
		if rel < opts.FuncTol {
			break
		}
	}
	return f, nil
}

// SGDOptions configures stochastic gradient descent with linear decay.
type SGDOptions struct {
	LearningRate float64 // initial step (default 0.1)
	FinalRate    float64 // step at the last update (default LearningRate/100)
	ClipNorm     float64 // per-update max gradient norm; 0 disables
}

// SGD holds SGD state for incremental updates. Callers drive it with
// Update per minibatch gradient.
type SGD struct {
	opts    SGDOptions
	step    int
	total   int
	currize float64
}

// NewSGD creates an SGD schedule over an expected totalUpdates updates.
func NewSGD(opts SGDOptions, totalUpdates int) *SGD {
	if opts.LearningRate <= 0 {
		opts.LearningRate = 0.1
	}
	if opts.FinalRate <= 0 {
		opts.FinalRate = opts.LearningRate / 100
	}
	if totalUpdates <= 0 {
		totalUpdates = 1
	}
	return &SGD{opts: opts, total: totalUpdates}
}

// Rate returns the current learning rate.
func (s *SGD) Rate() float64 {
	t := float64(s.step) / float64(s.total)
	if t > 1 {
		t = 1
	}
	return s.opts.LearningRate + t*(s.opts.FinalRate-s.opts.LearningRate)
}

// Update applies x ← x − rate·grad, with optional gradient-norm clipping,
// and advances the schedule.
func (s *SGD) Update(x, grad []float64) {
	rate := s.Rate()
	s.step++
	if s.opts.ClipNorm > 0 {
		if n := l2Norm(grad); n > s.opts.ClipNorm {
			scale(s.opts.ClipNorm/n, grad)
		}
	}
	axpy(-rate, grad, x)
}

// Adam implements the Adam optimizer (Kingma & Ba) for the neural models.
type Adam struct {
	Rate    float64 // default 1e-3
	Beta1   float64 // default 0.9
	Beta2   float64 // default 0.999
	Epsilon float64 // default 1e-8
	Clip    float64 // per-update max gradient norm; 0 disables

	m, v []float64
	t    int
}

// NewAdam returns an Adam optimizer for parameter vectors of length n.
func NewAdam(n int, rate float64) *Adam {
	if rate <= 0 {
		rate = 1e-3
	}
	return &Adam{
		Rate: rate, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make([]float64, n), v: make([]float64, n),
	}
}

// UpdateAt applies one Adam step restricted to the given parameter
// indices ("lazy Adam"): moment estimates of untouched parameters are left
// stale rather than decayed. This is the standard optimization for models
// dominated by embedding tables, where each example touches only a few
// rows; it changes the trajectory slightly but not convergence in
// practice. Gradient clipping, if configured, is computed over the
// restricted index set.
func (a *Adam) UpdateAt(x, grad []float64, idx []int) {
	if len(x) != len(a.m) || len(grad) != len(a.m) {
		panic("optimize: Adam dimension mismatch")
	}
	if a.Clip > 0 {
		var n2 float64
		for _, i := range idx {
			n2 += grad[i] * grad[i]
		}
		if n := math.Sqrt(n2); n > a.Clip {
			s := a.Clip / n
			for _, i := range idx {
				grad[i] *= s
			}
		}
	}
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, i := range idx {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*grad[i]
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*grad[i]*grad[i]
		mHat := a.m[i] / b1c
		vHat := a.v[i] / b2c
		x[i] -= a.Rate * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}

// Update applies one Adam step to x given grad. Both must have the length
// the optimizer was created with.
func (a *Adam) Update(x, grad []float64) {
	if len(x) != len(a.m) || len(grad) != len(a.m) {
		panic("optimize: Adam dimension mismatch")
	}
	if a.Clip > 0 {
		if n := l2Norm(grad); n > a.Clip {
			scale(a.Clip/n, grad)
		}
	}
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range x {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*grad[i]
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*grad[i]*grad[i]
		mHat := a.m[i] / b1c
		vHat := a.v[i] / b2c
		x[i] -= a.Rate * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}

// Vector helpers.

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// axpy computes y ← y + α·x.
func axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

func neg(x []float64) {
	for i := range x {
		x[i] = -x[i]
	}
}

func maxNorm(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func l2Norm(x []float64) float64 {
	return math.Sqrt(dot(x, x))
}
