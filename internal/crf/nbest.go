package crf

import (
	"math"
	"sort"

	"repro/internal/corpus"
)

// ScoredPath is one entry of an n-best list.
type ScoredPath struct {
	Tags []corpus.Tag
	// LogProb is the conditional log-probability log p(tags|x).
	LogProb float64
}

// NBest returns the n highest-probability tag sequences for the instance,
// in descending probability order, with exact conditional log-
// probabilities (NaN when the normaliser is 0 or not finite, see
// scaledForwardBackward). It runs Viterbi with per-state candidate lists
// (the standard n-best lattice extension): each state at each position
// keeps its n best predecessor extensions.
func (m *Model) NBest(in *Instance, n int) []ScoredPath {
	if in.Len() == 0 || n <= 0 {
		return nil
	}
	T := in.Len()
	S := m.S
	sc := acquireScratch(T, S)
	defer sc.release()
	emit := sc.mat(0, T, S)
	m.latticeInto(in, emit)

	// cand[s] holds up to n best partial paths ending in state s.
	type partial struct {
		score float64
		prev  *partial
		state int
	}
	cur := make([][]*partial, S)
	for s := 0; s < S; s++ {
		if m.startOK(s) {
			cur[s] = []*partial{{score: m.Start[s] + emit[0][s], state: s}}
		}
	}
	for t := 1; t < T; t++ {
		next := make([][]*partial, S)
		for sNew := 0; sNew < S; sNew++ {
			var pool []*partial
			for sPrev := 0; sPrev < S; sPrev++ {
				if !m.transitionOK(sPrev, sNew) {
					continue
				}
				for _, p := range cur[sPrev] {
					pool = append(pool, &partial{
						score: p.score + m.T[sPrev*S+sNew] + emit[t][sNew],
						prev:  p,
						state: sNew,
					})
				}
			}
			sort.Slice(pool, func(a, b int) bool { return pool[a].score > pool[b].score })
			if len(pool) > n {
				pool = pool[:n]
			}
			next[sNew] = pool
		}
		cur = next
	}

	// The path search is done with emit, so the kernel may exponentiate
	// it in place.
	logZ, _ := m.sumProduct(emit, sc.mat(1, T, S), nil)

	// Gather final candidates across all end states.
	var finals []*partial
	for s := 0; s < S; s++ {
		finals = append(finals, cur[s]...)
	}
	sort.Slice(finals, func(a, b int) bool { return finals[a].score > finals[b].score })
	if len(finals) > n {
		finals = finals[:n]
	}
	out := make([]ScoredPath, 0, len(finals))
	for _, f := range finals {
		tags := make([]corpus.Tag, T)
		for p, t := f, T-1; p != nil; p, t = p.prev, t-1 {
			tags[t] = m.stateTag(p.state)
		}
		out = append(out, ScoredPath{Tags: tags, LogProb: f.score - logZ})
	}
	return out
}

// MentionConfidence returns, for each mention decoded from tags, the
// model's probability that every one of the mention's tokens carries its
// decoded tag — a per-mention confidence estimate from the posterior
// marginals. Returned values are parallel to
// corpus.MentionsFromTags(tokens, tags, ...).
func (m *Model) MentionConfidence(in *Instance, tags []corpus.Tag) []float64 {
	post := m.Posteriors(in)
	var out []float64
	cur := 1.0
	open := false
	flush := func() {
		if open {
			out = append(out, cur)
			cur, open = 1.0, false
		}
	}
	for i, tag := range tags {
		switch {
		case tag == corpus.B, tag == corpus.I && !open:
			flush()
			open = true
			cur = post[i][tag]
		case tag == corpus.I:
			cur *= post[i][tag]
		default:
			flush()
		}
	}
	flush()
	return out
}

// entropy computes the Shannon entropy (nats) of a distribution; exported
// through TokenEntropy for uncertainty inspection.
func entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// TokenEntropy returns the per-token posterior entropy (in nats): a direct
// uncertainty signal for active-learning or error-analysis workflows.
func (m *Model) TokenEntropy(in *Instance) []float64 {
	post := m.Posteriors(in)
	out := make([]float64, len(post))
	for i, p := range post {
		out[i] = entropy(p)
	}
	return out
}
