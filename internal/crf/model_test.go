package crf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
)

// randomModel builds a model with random weights for nf features.
func randomModel(rng *rand.Rand, order Order, nf int, bio bool) *Model {
	S := numStates(order)
	m := &Model{
		Order:       order,
		NumFeatures: nf,
		S:           S,
		W:           make([]float64, nf*S),
		T:           make([]float64, S*S),
		Start:       make([]float64, S),
		BIO:         bio,
	}
	for i := range m.W {
		m.W[i] = rng.NormFloat64()
	}
	for i := range m.T {
		m.T[i] = rng.NormFloat64()
	}
	for i := range m.Start {
		m.Start[i] = rng.NormFloat64()
	}
	return m
}

// randomInstance builds an instance of length n with up to 3 random active
// features per position and random (BIO-consistent) tags.
func randomInstance(rng *rand.Rand, n, nf int, labelled bool) *Instance {
	in := &Instance{Features: make([][]int32, n)}
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			in.Features[i] = append(in.Features[i], int32(rng.Intn(nf)))
		}
	}
	if labelled {
		in.Tags = make([]corpus.Tag, n)
		prev := corpus.O
		for i := 0; i < n; i++ {
			var t corpus.Tag
			switch rng.Intn(3) {
			case 0:
				t = corpus.B
			case 1:
				if prev == corpus.O {
					t = corpus.B // keep BIO-consistent
				} else {
					t = corpus.I
				}
			default:
				t = corpus.O
			}
			in.Tags[i] = t
			prev = t
		}
	}
	return in
}

// enumeratePaths enumerates all BIO-legal tag sequences of length n.
func enumeratePaths(n int, bio bool) [][]corpus.Tag {
	var out [][]corpus.Tag
	var rec func(prefix []corpus.Tag)
	rec = func(prefix []corpus.Tag) {
		if len(prefix) == n {
			out = append(out, append([]corpus.Tag(nil), prefix...))
			return
		}
		prev := corpus.O
		if len(prefix) > 0 {
			prev = prefix[len(prefix)-1]
		}
		for t := corpus.Tag(0); t < corpus.NumTags; t++ {
			if bio && t == corpus.I && prev == corpus.O {
				continue
			}
			rec(append(prefix, t))
		}
	}
	rec(nil)
	return out
}

// bruteForce computes logZ, per-position tag marginals, and the best path
// by full enumeration.
func bruteForce(m *Model, in *Instance) (logZ float64, marg [][]float64, best []corpus.Tag) {
	n := in.Len()
	emit := m.lattice(in)
	paths := enumeratePaths(n, m.BIO)
	scores := make([]float64, len(paths))
	for pi, path := range paths {
		tmp := &Instance{Features: in.Features, Tags: path}
		scores[pi] = m.pathScore(tmp, emit)
	}
	logZ = logSumExp(scores)
	marg = make([][]float64, n)
	for i := range marg {
		marg[i] = make([]float64, corpus.NumTags)
	}
	bestScore := math.Inf(-1)
	for pi, path := range paths {
		p := math.Exp(scores[pi] - logZ)
		for i, t := range path {
			marg[i][t] += p
		}
		if scores[pi] > bestScore {
			bestScore = scores[pi]
			best = path
		}
	}
	return logZ, marg, best
}

func TestPosteriorsAgreeWithEnumeration(t *testing.T) {
	for _, order := range []Order{Order1, Order2} {
		for _, bio := range []bool{false, true} {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 20; trial++ {
				nf := 5
				n := 1 + rng.Intn(5)
				m := randomModel(rng, order, nf, bio)
				in := randomInstance(rng, n, nf, false)

				_, wantMarg, _ := bruteForce(m, in)
				got := m.Posteriors(in)
				for i := range got {
					for y := 0; y < corpus.NumTags; y++ {
						if math.Abs(got[i][y]-wantMarg[i][y]) > 1e-9 {
							t.Fatalf("order %d bio %v: marginal[%d][%d] = %g, want %g",
								order, bio, i, y, got[i][y], wantMarg[i][y])
						}
					}
				}
			}
		}
	}
}

func TestPosteriorsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, Order2, 8, true)
		in := randomInstance(rng, 1+rng.Intn(12), 8, false)
		for _, row := range m.Posteriors(in) {
			var sum float64
			for _, v := range row {
				if v < -1e-12 || v > 1+1e-12 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodeAgreesWithEnumeration(t *testing.T) {
	for _, order := range []Order{Order1, Order2} {
		for _, bio := range []bool{false, true} {
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 20; trial++ {
				m := randomModel(rng, order, 5, bio)
				in := randomInstance(rng, 1+rng.Intn(5), 5, false)
				_, _, want := bruteForce(m, in)
				got := m.Decode(in)
				// Compare scores rather than paths (ties possible).
				emit := m.lattice(in)
				gotScore := m.pathScore(&Instance{Features: in.Features, Tags: got}, emit)
				wantScore := m.pathScore(&Instance{Features: in.Features, Tags: want}, emit)
				if math.Abs(gotScore-wantScore) > 1e-9 {
					t.Fatalf("order %d bio %v: viterbi score %g, enumeration %g (%v vs %v)",
						order, bio, gotScore, wantScore, got, want)
				}
			}
		}
	}
}

func TestBIOConstraintRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m := randomModel(rng, Order2, 5, true)
		in := randomInstance(rng, 2+rng.Intn(8), 5, false)
		tags := m.Decode(in)
		prev := corpus.O
		for i, tag := range tags {
			if tag == corpus.I && prev == corpus.O {
				t.Fatalf("trial %d: O→I at position %d in %v", trial, i, tags)
			}
			prev = tag
		}
	}
}

func TestLogLikelihoodNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomModel(rng, Order2, 5, true)
	in := randomInstance(rng, 6, 5, true)
	ll := m.LogLikelihood(in)
	if ll > 1e-9 {
		t.Errorf("log-likelihood %g > 0", ll)
	}
}

func TestLogLikelihoodPanicsUnlabelled(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	rng := rand.New(rand.NewSource(3))
	m := randomModel(rng, Order1, 5, false)
	m.LogLikelihood(randomInstance(rng, 3, 5, false))
}

func TestEmptyInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomModel(rng, Order2, 5, true)
	empty := &Instance{}
	if got := m.Posteriors(empty); got != nil {
		t.Error("Posteriors(empty) != nil")
	}
	if got := m.Decode(empty); got != nil {
		t.Error("Decode(empty) != nil")
	}
	if got := m.LogLikelihood(&Instance{Tags: []corpus.Tag{}}); got != 0 {
		t.Error("LogLikelihood(empty) != 0")
	}
}

func TestDecodeWithPotentials(t *testing.T) {
	// Potentials strongly prefer B O B; uniform transitions.
	pot := [][]float64{
		{0.9, 0.05, 0.05},
		{0.05, 0.05, 0.9},
		{0.9, 0.05, 0.05},
	}
	uni := [][]float64{{1. / 3, 1. / 3, 1. / 3}, {1. / 3, 1. / 3, 1. / 3}, {1. / 3, 1. / 3, 1. / 3}}
	tags, err := DecodeWithPotentials(pot, uni, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []corpus.Tag{corpus.B, corpus.O, corpus.B}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", tags, want)
		}
	}
}

func TestDecodeWithPotentialsBIO(t *testing.T) {
	// Potentials prefer O then I, but BIO forbids it; best legal is O O or
	// B I depending on scores.
	pot := [][]float64{
		{0.3, 0.0, 0.7},
		{0.0, 0.9, 0.1},
	}
	uni := [][]float64{{1. / 3, 1. / 3, 1. / 3}, {1. / 3, 1. / 3, 1. / 3}, {1. / 3, 1. / 3, 1. / 3}}
	tags, err := DecodeWithPotentials(pot, uni, true)
	if err != nil {
		t.Fatal(err)
	}
	prev := corpus.O
	for _, tag := range tags {
		if tag == corpus.I && prev == corpus.O {
			t.Fatalf("BIO violated: %v", tags)
		}
		prev = tag
	}
	// B I should win: log(.3)+log(.9) > log(.7)+log(.1).
	if tags[0] != corpus.B || tags[1] != corpus.I {
		t.Errorf("tags = %v, want [B I]", tags)
	}
}

func TestDecodeWithPotentialsErrors(t *testing.T) {
	if _, err := DecodeWithPotentials([][]float64{{0.5, 0.5}}, nil, false); err == nil {
		t.Error("want error for short row")
	}
	if _, err := DecodeWithPotentials([][]float64{{0.3, 0.3, 0.4}}, [][]float64{{1, 0, 0}}, false); err == nil {
		t.Error("want error for bad transition matrix")
	}
	tags, err := DecodeWithPotentials(nil, nil, false)
	if err != nil || tags != nil {
		t.Error("empty input should be a no-op")
	}
}

func TestDecodeWithPotentialsZeroRows(t *testing.T) {
	// All-zero potential rows must not break the decoder (floored).
	pot := [][]float64{{0, 0, 0}, {0, 0, 0}}
	uni := [][]float64{{1. / 3, 1. / 3, 1. / 3}, {1. / 3, 1. / 3, 1. / 3}, {1. / 3, 1. / 3, 1. / 3}}
	tags, err := DecodeWithPotentials(pot, uni, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 2 {
		t.Fatalf("tags = %v", tags)
	}
}

// benchModel draws a model over the nf features of benchData with weights
// of σ = 0.5, as BenchmarkSentenceGradient evaluates; inference costs do not
// depend on the weight values.
func benchModel(order Order, nf int) *Model {
	m := randomModel(rand.New(rand.NewSource(3)), order, nf, true)
	for _, w := range [][]float64{m.W, m.T, m.Start} {
		for i := range w {
			w[i] *= 0.5
		}
	}
	return m
}

// benchInference times one pass of infer over the 900-sentence split of
// benchData per op, and reports the time per sentence.
func benchInference(b *testing.B, infer func(m *Model, in *Instance)) {
	data, nf := benchData()
	for _, order := range []Order{Order1, Order2} {
		b.Run(benchOrderName[order], func(b *testing.B) {
			m := benchModel(order, nf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range data {
					infer(m, in)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data)), "ns/sentence")
		})
	}
}

func BenchmarkPosteriors(b *testing.B) {
	benchInference(b, func(m *Model, in *Instance) { m.Posteriors(in) })
}

func BenchmarkDecode(b *testing.B) {
	benchInference(b, func(m *Model, in *Instance) { m.Decode(in) })
}
