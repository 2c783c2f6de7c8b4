package crf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/optimize"
)

// referenceLBFGS is optimize.LBFGS as it was before it reused the buffers
// of evicted correction pairs, kept verbatim apart from inlined vector
// helpers: it allocates a fresh (s, y) pair every iteration.
func referenceLBFGS(obj optimize.Objective, x []float64, opts optimize.LBFGSOptions) (float64, error) {
	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	axpy := func(alpha float64, x, y []float64) {
		for i := range y {
			y[i] += alpha * x[i]
		}
	}
	scale := func(alpha float64, x []float64) {
		for i := range x {
			x[i] *= alpha
		}
	}
	neg := func(x []float64) {
		for i := range x {
			x[i] = -x[i]
		}
	}
	maxNorm := func(x []float64) float64 {
		var m float64
		for _, v := range x {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	if opts.Memory <= 0 {
		opts.Memory = 10
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100
	}
	if opts.GradTol <= 0 {
		opts.GradTol = 1e-6
	}
	if opts.FuncTol <= 0 {
		opts.FuncTol = 1e-9
	}
	n := len(x)
	grad := make([]float64, n)
	f := obj.Eval(x, grad)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return f, fmt.Errorf("optimize: objective is %v at start", f)
	}

	m := opts.Memory
	sHist := make([][]float64, 0, m) // x_{k+1} - x_k
	yHist := make([][]float64, 0, m) // g_{k+1} - g_k
	rhoHist := make([]float64, 0, m)

	dir := make([]float64, n)
	xNew := make([]float64, n)
	gradNew := make([]float64, n)
	alphaBuf := make([]float64, m)

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if maxNorm(grad) < opts.GradTol {
			break
		}

		// Two-loop recursion: dir = -H·grad.
		copy(dir, grad)
		k := len(sHist)
		for i := k - 1; i >= 0; i-- {
			alphaBuf[i] = rhoHist[i] * dot(sHist[i], dir)
			axpy(-alphaBuf[i], yHist[i], dir)
		}
		if k > 0 {
			// Initial Hessian scaling γ = sᵀy / yᵀy.
			gamma := dot(sHist[k-1], yHist[k-1]) / dot(yHist[k-1], yHist[k-1])
			scale(gamma, dir)
		}
		for i := 0; i < k; i++ {
			beta := rhoHist[i] * dot(yHist[i], dir)
			axpy(alphaBuf[i]-beta, sHist[i], dir)
		}
		neg(dir)

		// Descent check; fall back to steepest descent if needed.
		dg := dot(dir, grad)
		if dg >= 0 {
			copy(dir, grad)
			neg(dir)
			dg = -dot(grad, grad)
			sHist, yHist, rhoHist = sHist[:0], yHist[:0], rhoHist[:0]
		}

		// Backtracking Armijo line search.
		step := 1.0
		if iter == 0 {
			if g := maxNorm(grad); g > 0 {
				step = math.Min(1.0, 1.0/g)
			}
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
			return f, optimize.ErrLineSearch
		}

		// Update correction history.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			s[i] = xNew[i] - x[i]
			y[i] = gradNew[i] - grad[i]
		}
		if sy := dot(s, y); sy > 1e-12 {
			if len(sHist) == m {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
		}

		rel := math.Abs(f-fNew) / math.Max(math.Abs(f), 1)
		copy(x, xNew)
		copy(grad, gradNew)
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

// denseQuadratic is f(x) = ½·xᵀAx − bᵀx with A symmetric positive definite
// and ill-conditioned, so L-BFGS fills and cycles its correction history.
type denseQuadratic struct {
	a [][]float64
	b []float64
}

func (q denseQuadratic) Eval(x, grad []float64) float64 {
	var f float64
	for i, row := range q.a {
		var ax float64
		for j, v := range row {
			ax += v * x[j]
		}
		grad[i] = ax - q.b[i]
		f += 0.5*x[i]*ax - q.b[i]*x[i]
	}
	return f
}

// staleGradient reports, on every fifth evaluation, the previous
// evaluation's gradient in place of the current one. When that lands on an
// accepted step, y = 0 and L-BFGS rejects the pair with its history full —
// the one path where a reused buffer that is still in the history would
// change the iterates.
type staleGradient struct {
	inner optimize.Objective
	calls int
	last  []float64
}

func (o *staleGradient) Eval(x, grad []float64) float64 {
	f := o.inner.Eval(x, grad)
	o.calls++
	if o.calls%5 == 0 && o.last != nil {
		copy(grad, o.last)
	}
	o.last = append(o.last[:0], grad...)
	return f
}

// TestLBFGSMatchesReference pins optimize.LBFGS's reuse of correction-pair
// buffers: on a dense quadratic, the same quadratic with stale gradients
// (rejected pairs), and the CRF objective (both orders), the final iterate
// and objective are bit-identical to the allocating reference loop's, with
// the history full and evicting for most of the run.
func TestLBFGSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const dim = 30
	q := denseQuadratic{a: make([][]float64, dim), b: make([]float64, dim)}
	basis := make([][]float64, dim)
	for i := range basis {
		basis[i] = make([]float64, dim)
		for j := range basis[i] {
			basis[i][j] = rng.NormFloat64()
		}
		q.b[i] = rng.NormFloat64()
	}
	for i := range q.a {
		q.a[i] = make([]float64, dim)
		for j := range q.a[i] {
			for k := range basis {
				q.a[i][j] += basis[k][i] * basis[k][j] * math.Pow(1.5, float64(k%12))
			}
		}
	}
	type problem struct {
		name string
		obj  func() optimize.Objective // a fresh objective for each run
		dim  int
	}
	problems := []problem{
		{"quadratic", func() optimize.Objective { return q }, dim},
		{"stale quadratic", func() optimize.Objective { return &staleGradient{inner: q} }, dim},
	}
	for _, order := range []Order{Order1, Order2} {
		var data []*Instance
		for i := 0; i < 20; i++ {
			data = append(data, randomInstance(rng, 2+rng.Intn(12), 12, true))
		}
		S := numStates(order)
		obj := func() optimize.Objective {
			return &objective{
				data:    data,
				tmpl:    Model{Order: order, NumFeatures: 12, S: S, BIO: true},
				l2:      0.1,
				workers: 2,
			}
		}
		problems = append(problems, problem{fmt.Sprintf("crf order %d", order), obj, 12*S + S*S + S})
	}
	for _, p := range problems {
		name := p.name
		opts := optimize.LBFGSOptions{Memory: 4, MaxIterations: 40, FuncTol: 1e-15}
		iters := 0
		opts.Callback = func(int, float64) bool { iters++; return true }
		got := make([]float64, p.dim)
		fGot, errGot := optimize.LBFGS(p.obj(), got, opts)
		opts.Callback = nil
		want := make([]float64, p.dim)
		fWant, errWant := referenceLBFGS(p.obj(), want, opts)
		if !errors.Is(errGot, errWant) {
			t.Fatalf("%s: error %v, reference %v", name, errGot, errWant)
		}
		if iters <= 2*opts.Memory {
			t.Fatalf("%s: only %d iterations; the history never cycled", name, iters)
		}
		if math.Float64bits(fGot) != math.Float64bits(fWant) {
			t.Errorf("%s: f = %v, reference %v", name, fGot, fWant)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: x[%d] = %v, reference %v", name, i, got[i], want[i])
			}
		}
	}
}

// referenceEval is objective.Eval as it was before its gradient fold was
// fused: fresh zeroed worker buffers, the workers' NLLs summed, grad
// zeroed, each buffer added in worker order, then the L2 penalty.
func referenceEval(o *objective, x, grad []float64) float64 {
	m := o.view(x)
	bufs := make([][]float64, o.workers)
	for w := range bufs {
		bufs[w] = make([]float64, len(x))
	}
	o.potentials(&m)
	nlls := make([]float64, o.workers)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gm := o.view(bufs[w])
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
	for i := range grad {
		grad[i] = 0
	}
	for _, b := range bufs {
		for i, v := range b {
			grad[i] += v
		}
	}
	for i, v := range x {
		f += 0.5 * o.l2 * v * v
		grad[i] += o.l2 * v
	}
	return f
}

// TestObjectiveEvalMatchesReference pins objective.Eval's fused fold to
// the unfused loop bit for bit — objective and gradient, at orders 1 and
// 2 with 1 to 3 workers — over successive calls on one objective, so a
// worker buffer left dirty by one call shows up in the next.
func TestObjectiveEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var data []*Instance
	for i := 0; i < 25; i++ {
		data = append(data, randomInstance(rng, 1+rng.Intn(15), 20, true))
	}
	for _, order := range []Order{Order1, Order2} {
		for workers := 1; workers <= 3; workers++ {
			S := numStates(order)
			mk := func() *objective {
				return &objective{data: data, tmpl: Model{Order: order, NumFeatures: 20, S: S, BIO: true}, l2: 0.3, workers: workers}
			}
			got, ref := mk(), mk()
			x := make([]float64, 20*S+S*S+S)
			g, want := make([]float64, len(x)), make([]float64, len(x))
			for call := 0; call < 3; call++ {
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				f, fWant := got.Eval(x, g), referenceEval(ref, x, want)
				if math.Float64bits(f) != math.Float64bits(fWant) {
					t.Fatalf("order %d, %d workers, call %d: f = %v, reference %v", order, workers, call, f, fWant)
				}
				for i := range want {
					if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
						t.Fatalf("order %d, %d workers, call %d: grad[%d] = %v, reference %v", order, workers, call, i, g[i], want[i])
					}
				}
			}
		}
	}
}
