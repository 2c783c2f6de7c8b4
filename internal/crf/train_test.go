package crf

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/features"
	"repro/internal/optimize"
	"repro/internal/race"
	"repro/internal/tokenize"
)

// referenceSentenceGradient is the log-space training kernel that
// sentenceGradient replaced, kept verbatim: forward–backward in log space
// (forwardBackwardInto, kept in logspace_test.go), one exp per node
// and per permitted edge marginal, and a second pass for the empirical
// counts. TestSentenceGradientMatchesReference compares the scaled kernel
// against it.
func referenceSentenceGradient(m *Model, in *Instance, gW, gT, gStart []float64) float64 {
	n := in.Len()
	if n == 0 {
		return 0
	}
	sc := acquireScratch(n, m.S)
	emit := sc.mat(0, n, m.S)
	alpha := sc.mat(1, n, m.S)
	beta := sc.mat(2, n, m.S)
	buf, nodeMarg := sc.bufs(n, m.S)
	m.latticeInto(in, emit)
	logZ := m.forwardBackwardInto(emit, alpha, beta, buf)
	S := m.S
	for i := 0; i < n; i++ {
		for s := 0; s < S; s++ {
			lp := alpha[i][s] + beta[i][s] - logZ
			if math.IsInf(lp, -1) {
				nodeMarg[s] = 0
			} else {
				nodeMarg[s] = math.Exp(lp)
			}
		}
		for _, fid := range in.Features[i] {
			if fid < 0 {
				continue
			}
			base := int(fid) * S
			for s := 0; s < S; s++ {
				gW[base+s] += nodeMarg[s]
			}
		}
		if i == 0 {
			for s := 0; s < S; s++ {
				gStart[s] += nodeMarg[s]
			}
		} else {
			for prev := 0; prev < S; prev++ {
				if math.IsInf(alpha[i-1][prev], -1) {
					continue
				}
				for cur := 0; cur < S; cur++ {
					if !m.transitionOK(prev, cur) || math.IsInf(beta[i][cur], -1) {
						continue
					}
					lp := alpha[i-1][prev] + m.T[prev*S+cur] + emit[i][cur] + beta[i][cur] - logZ
					if !math.IsInf(lp, -1) {
						gT[prev*S+cur] += math.Exp(lp)
					}
				}
			}
		}
	}

	// Empirical counts (subtract).
	goldScore := 0.0
	prevState := -1
	for i := 0; i < n; i++ {
		s := m.stateFor(tagBefore(in, i), in.Tags[i])
		for _, fid := range in.Features[i] {
			if fid < 0 {
				continue
			}
			gW[int(fid)*S+s]--
		}
		if i == 0 {
			gStart[s]--
			goldScore += m.Start[s]
		} else {
			gT[prevState*S+s]--
			goldScore += m.T[prevState*S+s]
		}
		goldScore += emit[i][s]
		prevState = s
	}
	sc.release()
	return logZ - goldScore
}

// kernelGradient runs the production kernel for one instance on m, with
// the potentials objective.Eval would compute, into gradient views over g.
func kernelGradient(m *Model, in *Instance, g []float64) float64 {
	o := &objective{tmpl: Model{Order: m.Order, NumFeatures: m.NumFeatures, S: m.S, BIO: m.BIO}}
	o.potentials(m)
	gm := o.view(g)
	return sentenceGradient(m, o.expT, o.expStart, in, gm.W, gm.T, gm.Start)
}

// numParams is the length of m's parameter vector (objective.view's
// layout).
func numParams(m *Model) int { return len(m.W) + len(m.T) + len(m.Start) }

// gradientCase is one instance and model drawn for the kernel comparisons:
// both orders, BIO on and off, weights scaled to σ, and roughly a quarter
// of the positions carrying an unknown (−1) feature id.
type gradientCase struct {
	name string
	m    *Model
	in   *Instance
}

func gradientCases(rng *rand.Rand, sigmas []float64, lengths []int) []gradientCase {
	const nf = 40
	var out []gradientCase
	for _, order := range []Order{Order1, Order2} {
		for _, bio := range []bool{true, false} {
			for _, sigma := range sigmas {
				m := randomModel(rng, order, nf, bio)
				for _, w := range [][]float64{m.W, m.T, m.Start} {
					for i := range w {
						w[i] *= sigma
					}
				}
				for _, n := range lengths {
					in := randomInstance(rng, n, nf, true)
					for _, feats := range in.Features {
						if rng.Intn(4) == 0 {
							feats[0] = -1
						}
					}
					name := fmt.Sprintf("order %d bio %v σ %g n %d", order, bio, sigma, n)
					out = append(out, gradientCase{name, m, in})
				}
			}
		}
	}
	return out
}

// TestSentenceGradientMatchesReference pins the scaled probability-space
// kernel to the log-space reference over both orders, BIO on and off,
// lengths 1–60 with unknown feature ids, and weights drawn with σ up to 5.
// The NLL agrees to 1e-12·(1+|ref|). A gradient coordinate may differ by
// that plus the reference's own rounding: each of its terms is exp of a
// difference of log values as large as |logZ|, so it carries a relative
// error of about ε·|logZ|, and a coordinate sums up to ~n of them.
// TestSentenceGradientMatchesExact shows the scaled kernel is the more
// accurate of the two.
func TestSentenceGradientMatchesReference(t *testing.T) {
	lengths := make([]int, 60)
	for i := range lengths {
		lengths[i] = i + 1
	}
	for _, tc := range gradientCases(rand.New(rand.NewSource(59)), []float64{0.1, 1, 2.5, 5}, lengths) {
		m, in := tc.m, tc.in
		want := make([]float64, numParams(m))
		wm := (&objective{tmpl: *m}).view(want)
		ref := referenceSentenceGradient(m, in, wm.W, wm.T, wm.Start)
		got := make([]float64, len(want))
		nll := kernelGradient(m, in, got)
		if math.Abs(nll-ref) > 1e-12*(1+math.Abs(ref)) {
			t.Fatalf("%s: NLL %.17g, reference %.17g", tc.name, nll, ref)
		}
		_, _, logZ := m.forwardBackward(m.lattice(in))
		rounding := 4 * 0x1p-52 * math.Abs(logZ) * float64(in.Len())
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-12*(1+math.Abs(want[k]))+rounding {
				t.Fatalf("%s: grad[%d] = %.17g, reference %.17g", tc.name, k, got[k], want[k])
			}
		}
	}
}

// TestSentenceGradientMatchesExact compares the kernel's NLL and gradient
// with the same quantities computed in 256-bit big.Float arithmetic,
// unscaled, to 1e-12·(1+|exact|).
func TestSentenceGradientMatchesExact(t *testing.T) {
	for _, tc := range gradientCases(rand.New(rand.NewSource(71)), []float64{1, 5}, []int{1, 2, 7, 25, 60}) {
		m, in := tc.m, tc.in
		exact := make([]float64, numParams(m))
		exactNLL := exactSentenceGradient(m, in, exact)
		got := make([]float64, len(exact))
		nll := kernelGradient(m, in, got)
		if math.Abs(nll-exactNLL) > 1e-12*(1+math.Abs(exactNLL)) {
			t.Fatalf("%s: NLL %.17g, exact %.17g", tc.name, nll, exactNLL)
		}
		for k := range exact {
			if math.Abs(got[k]-exact[k]) > 1e-12*(1+math.Abs(exact[k])) {
				t.Fatalf("%s: grad[%d] = %.17g, exact %.17g", tc.name, k, got[k], exact[k])
			}
		}
	}
}

const exactPrec = 256

func newExact() *big.Float { return new(big.Float).SetPrec(exactPrec) }

// exactExp returns e^x to exactPrec bits: a Taylor series on x/2^k with
// |x/2^k| ≤ 1/2, squared k times.
func exactExp(x float64) *big.Float {
	k := 0
	for math.Abs(math.Ldexp(x, -k)) > 0.5 {
		k++
	}
	r := newExact().SetFloat64(math.Ldexp(x, -k))
	sum, term := newExact().SetInt64(1), newExact().SetInt64(1)
	for i := int64(1); i < 60; i++ {
		term.Mul(term, r)
		term.Quo(term, newExact().SetInt64(i))
		sum.Add(sum, term)
	}
	for ; k > 0; k-- {
		sum.Mul(sum, sum)
	}
	return sum
}

// exactLattice is an unscaled probability-space forward–backward over one
// instance in exactPrec-bit big.Float arithmetic: the oracle the scaled
// kernel is checked against in training and in inference.
type exactLattice struct {
	emit             [][]float64 // the float64 emission scores
	pot, alpha, beta [][]*big.Float
	expT             []*big.Float
	z                *big.Float // the normaliser Σₛ alpha[n-1][s]
}

func exactForwardBackward(m *Model, in *Instance) *exactLattice {
	n, S := in.Len(), m.S
	emit := m.lattice(in)
	grid := func() [][]*big.Float {
		out := make([][]*big.Float, n)
		for i := range out {
			out[i] = make([]*big.Float, S)
			for s := range out[i] {
				out[i][s] = newExact()
			}
		}
		return out
	}
	pot, alpha, beta := grid(), grid(), grid()
	for i := range pot {
		for s := range pot[i] {
			pot[i][s] = exactExp(emit[i][s])
		}
	}
	expT := make([]*big.Float, S*S)
	for p := 0; p < S; p++ {
		for c := 0; c < S; c++ {
			expT[p*S+c] = newExact()
			if m.transitionOK(p, c) {
				expT[p*S+c] = exactExp(m.T[p*S+c])
			}
		}
	}
	for s := 0; s < S; s++ {
		if m.startOK(s) {
			alpha[0][s].Mul(exactExp(m.Start[s]), pot[0][s])
		}
	}
	for i := 1; i < n; i++ {
		for c := 0; c < S; c++ {
			for p := 0; p < S; p++ {
				alpha[i][c].Add(alpha[i][c], newExact().Mul(alpha[i-1][p], expT[p*S+c]))
			}
			alpha[i][c].Mul(alpha[i][c], pot[i][c])
		}
	}
	for s := 0; s < S; s++ {
		beta[n-1][s].SetInt64(1)
	}
	for i := n - 2; i >= 0; i-- {
		for p := 0; p < S; p++ {
			for c := 0; c < S; c++ {
				v := newExact().Mul(expT[p*S+c], pot[i+1][c])
				beta[i][p].Add(beta[i][p], v.Mul(v, beta[i+1][c]))
			}
		}
	}
	z := newExact()
	for _, a := range alpha[n-1] {
		z.Add(z, a)
	}
	return &exactLattice{emit: emit, pot: pot, alpha: alpha, beta: beta, expT: expT, z: z}
}

// marginal returns the node marginal P(state s at position i).
func (e *exactLattice) marginal(i, s int) *big.Float {
	marg := newExact().Mul(e.alpha[i][s], e.beta[i][s])
	return marg.Quo(marg, e.z)
}

// logZ returns log z rounded to float64.
func (e *exactLattice) logZ() float64 {
	mant := newExact()
	exp := e.z.MantExp(mant)
	mf, _ := mant.Float64()
	return math.Log(mf) + float64(exp)*math.Ln2
}

// exactPosteriors returns the per-position tag marginals, each summed over
// the states of its tag before rounding to float64.
func exactPosteriors(m *Model, in *Instance) [][]float64 {
	e := exactForwardBackward(m, in)
	out := make([][]float64, in.Len())
	for i := range out {
		acc := make([]*big.Float, corpus.NumTags)
		for y := range acc {
			acc[y] = newExact()
		}
		for s := 0; s < m.S; s++ {
			y := m.stateTag(s)
			acc[y].Add(acc[y], e.marginal(i, s))
		}
		out[i] = make([]float64, corpus.NumTags)
		for y, v := range acc {
			out[i][y], _ = v.Float64()
		}
	}
	return out
}

// exactLogLikelihood returns log p(tags|x) with the oracle's logZ.
func exactLogLikelihood(m *Model, in *Instance) float64 {
	e := exactForwardBackward(m, in)
	return m.pathScore(in, e.emit) - e.logZ()
}

// exactSentenceGradient writes ∂NLL/∂θ for one instance into g (laid out as
// objective.view) and returns the NLL, from the exactLattice oracle.
func exactSentenceGradient(m *Model, in *Instance, g []float64) float64 {
	n, S := in.Len(), m.S
	e := exactForwardBackward(m, in)
	acc := make([]*big.Float, len(g))
	for k := range acc {
		acc[k] = newExact()
	}
	nW := m.NumFeatures * S
	prev := -1
	for i := 0; i < n; i++ {
		gold := m.stateFor(tagBefore(in, i), in.Tags[i])
		for s := 0; s < S; s++ {
			marg := e.marginal(i, s)
			if s == gold {
				marg.Sub(marg, newExact().SetInt64(1))
			}
			for _, f := range in.Features[i] {
				if f >= 0 {
					acc[int(f)*S+s].Add(acc[int(f)*S+s], marg)
				}
			}
			if i == 0 {
				acc[nW+S*S+s].Add(acc[nW+S*S+s], marg)
			}
		}
		if i > 0 {
			for p := 0; p < S; p++ {
				for c := 0; c < S; c++ {
					v := newExact().Mul(e.alpha[i-1][p], e.expT[p*S+c])
					v.Mul(v, e.pot[i][c])
					v.Mul(v, e.beta[i][c])
					acc[nW+p*S+c].Add(acc[nW+p*S+c], v.Quo(v, e.z))
				}
			}
			acc[nW+prev*S+gold].Sub(acc[nW+prev*S+gold], newExact().SetInt64(1))
		}
		prev = gold
	}
	for k := range g {
		g[k], _ = acc[k].Float64()
	}
	return e.logZ() - m.pathScore(in, e.emit)
}

// TestSentenceGradientDegenerate: transition weights that make every
// transition underflow (−800) or overflow (+800) give an +Inf NLL and
// leave the gradient untouched — no NaN, no panic.
func TestSentenceGradientDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, order := range []Order{Order1, Order2} {
		for _, tw := range []float64{-800, 800} {
			m := randomModel(rng, order, 10, true)
			for i := range m.T {
				m.T[i] = tw
			}
			in := randomInstance(rng, 6, 10, true)
			g := make([]float64, numParams(m))
			for i := range g {
				g[i] = 0.25
			}
			if nll := kernelGradient(m, in, g); !math.IsInf(nll, 1) {
				t.Errorf("order %d, T = %g: NLL %g, want +Inf", order, tw, nll)
			}
			for i, v := range g {
				if v != 0.25 {
					t.Fatalf("order %d, T = %g: grad[%d] = %g, want it untouched", order, tw, i, v)
				}
			}
		}
	}
}

// TestPosteriorsDegenerate pins the inference kernel's behaviour on
// weights that no trained model has: transitions that all underflow (−800)
// or overflow (+800), and a NaN emission weight. The normaliser is then 0
// or not finite, so every posterior row is uniform; LogLikelihood and
// every n-best log-probability are NaN, and nothing panics.
func TestPosteriorsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const nf = 10
	setT := func(w float64) func(*Model, *Instance) {
		return func(m *Model, _ *Instance) {
			for i := range m.T {
				m.T[i] = w
			}
		}
	}
	cases := []struct {
		bad   string
		spoil func(*Model, *Instance)
	}{
		{"T = -800", setT(-800)},
		{"T = +800", setT(800)},
		{"NaN emission weight", func(m *Model, in *Instance) { m.W[int(in.Features[3][0])*m.S+1] = math.NaN() }},
	}
	for _, order := range []Order{Order1, Order2} {
		for _, tc := range cases {
			m := randomModel(rng, order, nf, true)
			in := randomInstance(rng, 6, nf, true)
			tc.spoil(m, in)
			flat := make([]float64, in.Len()*corpus.NumTags)
			if err := m.PosteriorsInto(in, flat); err != nil {
				t.Fatal(err)
			}
			for i, v := range flat {
				if v != 1.0/corpus.NumTags {
					t.Fatalf("order %d, %s: posterior entry %d = %g, want uniform", order, tc.bad, i, v)
				}
			}
			if ll := m.LogLikelihood(in); !math.IsNaN(ll) {
				t.Errorf("order %d, %s: LogLikelihood %g, want NaN", order, tc.bad, ll)
			}
			paths := m.NBest(in, 3)
			if len(paths) == 0 {
				t.Fatalf("order %d, %s: NBest returned no paths", order, tc.bad)
			}
			for _, p := range paths {
				if !math.IsNaN(p.LogProb) {
					t.Errorf("order %d, %s: n-best log-probability %g, want NaN", order, tc.bad, p.LogProb)
				}
			}
		}
	}
}

// TestSentenceGradientAllocGuard pins the training kernel's contract:
// after the lattice pool is warm, a call allocates nothing.
func TestSentenceGradientAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; counts are only meaningful in normal builds")
	}
	rng := rand.New(rand.NewSource(67))
	const nf = 30
	for _, order := range []Order{Order1, Order2} {
		m := randomModel(rng, order, nf, true)
		o := &objective{tmpl: Model{Order: order, NumFeatures: nf, S: m.S, BIO: true}}
		o.potentials(m)
		g := o.view(make([]float64, numParams(m)))
		ins := make([]*Instance, 8)
		for i := range ins {
			ins[i] = randomInstance(rng, 4+i*5, nf, true)
		}
		for _, in := range ins {
			sentenceGradient(m, o.expT, o.expStart, in, g.W, g.T, g.Start)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			sentenceGradient(m, o.expT, o.expStart, ins[i%len(ins)], g.W, g.T, g.Start)
			i++
		})
		if allocs != 0 {
			t.Fatalf("order %d: warm sentenceGradient allocates %.1f objects/op, want 0", order, allocs)
		}
	}
}

func TestGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, order := range []Order{Order1, Order2} {
		nf := 4
		data := []*Instance{
			randomInstance(rng, 4, nf, true),
			randomInstance(rng, 3, nf, true),
		}
		S := numStates(order)
		obj := &objective{
			data:    data,
			tmpl:    Model{Order: order, NumFeatures: nf, S: S, BIO: true},
			l2:      0.1,
			workers: 2,
		}
		n := nf*S + S*S + S
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 0.5
		}
		grad := make([]float64, n)
		f0 := obj.Eval(x, grad)

		const h = 1e-6
		xp := make([]float64, n)
		tmp := make([]float64, n)
		for i := 0; i < n; i += 7 { // sample every 7th coordinate
			copy(xp, x)
			xp[i] += h
			fp := obj.Eval(xp, tmp)
			num := (fp - f0) / h
			if math.Abs(num-grad[i]) > 1e-3*(1+math.Abs(num)) {
				t.Errorf("order %d: grad[%d] = %g, finite diff %g", order, i, grad[i], num)
			}
		}
	}
}

func TestObjectiveDecreasesUnderTraining(t *testing.T) {
	// A tiny separable dataset: the word "GENE1" is always B, others O.
	sentences := []string{
		"the GENE1 pathway",
		"activation of GENE1 was seen",
		"we measured GENE1 expression",
		"control samples showed nothing",
	}
	tags := [][]corpus.Tag{
		{corpus.O, corpus.B, corpus.I, corpus.O},
		{corpus.O, corpus.O, corpus.B, corpus.I, corpus.O, corpus.O},
		{corpus.O, corpus.O, corpus.B, corpus.I, corpus.O},
		{corpus.O, corpus.O, corpus.O, corpus.O},
	}
	corp := corpus.New()
	for i, text := range sentences {
		s := &corpus.Sentence{ID: string(rune('A' + i)), Text: text, Tokens: tokenize.Sentence(text)}
		s.Tags = tags[i]
		corp.Sentences = append(corp.Sentences, s)
	}

	comp := NewCompiler(features.NewExtractor(nil))
	data := comp.Compile(corp)
	nf := comp.FreezeAlphabet()

	tr := NewTrainer(Order2)
	tr.MaxIterations = 60
	tr.L2 = 0.1
	m, err := tr.Train(data, nf)
	if err != nil {
		t.Fatal(err)
	}

	// The model should fit the training data.
	for i, in := range data {
		got := m.Decode(in)
		for j := range got {
			if got[j] != in.Tags[j] {
				t.Errorf("sentence %d position %d: decoded %v, gold %v", i, j, got, in.Tags)
				break
			}
		}
	}

	// Posterior at the GENE1 position should favor B strongly.
	post := m.Posteriors(data[0])
	if post[1][corpus.B] < 0.8 {
		t.Errorf("P(B|GENE1) = %g, want > 0.8", post[1][corpus.B])
	}
}

func TestTrainGeneralizes(t *testing.T) {
	// Train on sentences mentioning GENEA/GENEB in recurring contexts, test
	// on a held-out sentence with the same context but a new position.
	corp := corpus.New()
	mk := func(id, text string, tags []corpus.Tag) {
		s := &corpus.Sentence{ID: id, Text: text, Tokens: tokenize.Sentence(text)}
		s.Tags = tags
		corp.Sentences = append(corp.Sentences, s)
	}
	mk("1", "mutation of GENEA was detected", []corpus.Tag{corpus.O, corpus.O, corpus.B, corpus.O, corpus.O})
	mk("2", "mutation of GENEB was detected", []corpus.Tag{corpus.O, corpus.O, corpus.B, corpus.O, corpus.O})
	mk("3", "expression of GENEA increased", []corpus.Tag{corpus.O, corpus.O, corpus.B, corpus.O})
	mk("4", "the patients showed no response", []corpus.Tag{corpus.O, corpus.O, corpus.O, corpus.O, corpus.O})
	mk("5", "no mutations were found here", []corpus.Tag{corpus.O, corpus.O, corpus.O, corpus.O, corpus.O})

	comp := NewCompiler(features.NewExtractor(nil))
	data := comp.Compile(corp)
	nf := comp.FreezeAlphabet()
	tr := NewTrainer(Order1)
	tr.MaxIterations = 60
	tr.L2 = 0.5
	m, err := tr.Train(data, nf)
	if err != nil {
		t.Fatal(err)
	}

	test := &corpus.Sentence{Text: "mutation of GENEB increased", Tokens: tokenize.Sentence("mutation of GENEB increased")}
	in := comp.CompileSentence(test)
	got := m.Decode(in)
	if got[2] != corpus.B {
		t.Errorf("held-out gene not detected: %v", got)
	}
	if got[0] != corpus.O || got[1] != corpus.O {
		t.Errorf("context words mistagged: %v", got)
	}
}

func TestTrainValidation(t *testing.T) {
	tr := NewTrainer(Order1)
	if _, err := tr.Train(nil, 0); err == nil {
		t.Error("want error for zero features")
	}
	unl := &Instance{Features: [][]int32{{0}}}
	if _, err := tr.Train([]*Instance{unl}, 5); err == nil {
		t.Error("want error for unlabelled instance")
	}
	bad := &Instance{Features: [][]int32{{0}, {1}}, Tags: []corpus.Tag{corpus.O}}
	if _, err := tr.Train([]*Instance{bad}, 5); err == nil {
		t.Error("want error for tag/feature length mismatch")
	}
	ok := &Instance{Features: [][]int32{{0}}, Tags: []corpus.Tag{corpus.O}}
	outOfRange := &Instance{Features: [][]int32{{0, -1}, {4, 5}}, Tags: []corpus.Tag{corpus.O, corpus.B}}
	_, err := tr.Train([]*Instance{ok, outOfRange}, 5)
	if err == nil {
		t.Fatal("want error for a feature id outside the alphabet")
	}
	if want := "crf: instance 1 position 1 has feature id 5, but the alphabet holds 5 features"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

func TestCompilerFreezing(t *testing.T) {
	comp := NewCompiler(features.NewExtractor(nil))
	s1 := &corpus.Sentence{Text: "alpha beta", Tokens: tokenize.Sentence("alpha beta")}
	comp.CompileSentence(s1)
	n := comp.FreezeAlphabet()
	if n == 0 {
		t.Fatal("empty alphabet")
	}
	s2 := &corpus.Sentence{Text: "gamma delta", Tokens: tokenize.Sentence("gamma delta")}
	in := comp.CompileSentence(s2)
	if comp.Alphabet.Len() != n {
		t.Error("alphabet grew after freeze")
	}
	for _, fs := range in.Features {
		for _, f := range fs {
			if int(f) >= n {
				t.Error("out-of-range feature id after freeze")
			}
		}
	}
}

// benchData compiles the training three quarters of a 1,200-sentence BC2GM
// corpus (seed 3): the 900-sentence split the repository benchmark's
// pipeline workload trains on.
var benchData = sync.OnceValues(func() ([]*Instance, int) {
	cfg := synth.DefaultConfig(synth.BC2GM, 3)
	cfg.Sentences = 1200
	train, _ := synth.GenerateSplit(cfg)
	comp := NewCompiler(features.NewExtractor(nil))
	data := comp.Compile(train)
	return data, comp.FreezeAlphabet()
})

var benchOrderName = map[Order]string{Order1: "Order1", Order2: "Order2"}

// BenchmarkSentenceGradient times one objective evaluation (NLL and
// gradient over every sentence) on the 900-sentence split, at weights
// drawn with σ = 0.5.
func BenchmarkSentenceGradient(b *testing.B) {
	data, nf := benchData()
	for _, order := range []Order{Order1, Order2} {
		b.Run(benchOrderName[order], func(b *testing.B) {
			S := numStates(order)
			obj := &objective{
				data:    data,
				tmpl:    Model{Order: order, NumFeatures: nf, S: S, BIO: true},
				l2:      1,
				workers: 2,
			}
			rng := rand.New(rand.NewSource(3))
			x := make([]float64, nf*S+S*S+S)
			for i := range x {
				x[i] = 0.5 * rng.NormFloat64()
			}
			grad := make([]float64, len(x))
			obj.Eval(x, grad)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj.Eval(x, grad)
			}
		})
	}
}

// BenchmarkTrain times 40 L-BFGS iterations on the 900-sentence split, as
// the repository benchmark's pipeline workload trains. Both benchmarks
// use two gradient workers.
func BenchmarkTrain(b *testing.B) {
	data, nf := benchData()
	for _, order := range []Order{Order1, Order2} {
		b.Run(benchOrderName[order], func(b *testing.B) {
			tr := NewTrainer(order)
			tr.MaxIterations = 40
			tr.Workers = 2
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Train(data, nf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// timedObjective adds up the wall time its inner objective spends in Eval.
type timedObjective struct {
	inner optimize.Objective
	spent time.Duration
}

func (o *timedObjective) Eval(x, grad []float64) float64 {
	start := time.Now()
	f := o.inner.Eval(x, grad)
	o.spent += time.Since(start)
	return f
}

// BenchmarkTrainCRF splits a pipeline-scale train — the 900-sentence
// split, order 1, 40 L-BFGS iterations, two gradient workers, the options
// Train passes — into the objective's time (eval_ms: NLL and gradient,
// the workers' fold and the L2 term) and the optimizer's own vector
// algebra (lbfgs_ms), per train. The two add up to crf.train.
func BenchmarkTrainCRF(b *testing.B) {
	data, nf := benchData()
	S := numStates(Order1)
	var total, eval time.Duration
	for i := 0; i < b.N; i++ {
		obj := &timedObjective{inner: &objective{
			data:    data,
			tmpl:    Model{Order: Order1, NumFeatures: nf, S: S, BIO: true},
			l2:      1,
			workers: 2,
		}}
		x := make([]float64, nf*S+S*S+S)
		start := time.Now()
		if _, err := optimize.LBFGS(obj, x, optimize.LBFGSOptions{MaxIterations: 40, FuncTol: 1e-7}); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		eval += obj.spent
	}
	perTrain := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(perTrain(eval), "eval_ms")
	b.ReportMetric(perTrain(total-eval), "lbfgs_ms")
}
