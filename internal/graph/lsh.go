package graph

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/features"
)

// The paper's conclusion flags the scalability of graph construction as an
// open problem: exact k-NN is O(V²F), "prohibitive for resources as large
// as the complete PubMed database". This file implements the standard
// remedy — locality-sensitive hashing for cosine similarity (random
// hyperplane signatures, Charikar 2002) — as a first-class builder path.
// Every vertex gets one long (Tables·Bits)-bit signature; consecutive
// Bits-wide bands of it act as independent hash tables for candidate
// generation, optionally probed at the band's least-confident bits
// (query-directed multi-probe in the spirit of Lv et al. 2007); scanned
// candidates are filtered by Hamming distance on the full signature (a
// proxy for the cosine angle costing a couple of XOR+popcount
// instructions instead of a sparse dot product); and only the Rerank best
// survivors are re-ranked with the exact cosine. The recall cost is
// small and measured (BENCH_lsh.json; TestLSHRecallRegression).
//
// The kernel follows the exact path's discipline: precomputed per-feature
// sign blocks (one hash per 64 planes per feature instead of one per
// (plane, feature) pair); a flat band-sorted bucket CSR built by a
// counting sort with the full signatures stored inline in bucket order,
// so the scan reads memory sequentially instead of chasing
// map[uint32][]int32; fixed-size per-worker scratch that allocates
// nothing in steady state; contiguous worker blocks; and a seeded output
// that is bit-identical for every worker count
// (TestLSHDeterministicAcrossWorkers).

// GraphMode selects the nearest-neighbour algorithm graph construction
// runs: the exact inverted-index merge, or banded LSH with exact cosine
// re-ranking.
type GraphMode int

const (
	// ModeExact is the exact postings-merge k-NN search (the default).
	ModeExact GraphMode = iota
	// ModeLSH generates candidates by banded random-hyperplane LSH,
	// filters them by signature Hamming distance, and re-ranks the
	// survivors with exact cosine; sublinear candidate generation at a
	// measured recall cost (see Recall and BENCH_lsh.json).
	ModeLSH
)

func (m GraphMode) String() string {
	if m == ModeLSH {
		return "lsh"
	}
	return "exact"
}

// ParseGraphMode parses the textual form used by command-line flags.
func ParseGraphMode(s string) (GraphMode, error) {
	switch strings.ToLower(s) {
	case "", "exact":
		return ModeExact, nil
	case "lsh":
		return ModeLSH, nil
	}
	return 0, fmt.Errorf("graph: unknown graph mode %q (want exact or lsh)", s)
}

// LSHConfig tunes the approximate k-NN search.
type LSHConfig struct {
	// Bits per band (bucket granularity); must be in [1, 32] — band
	// signatures are uint32. Default 8. Bucket population is roughly
	// V/2^Bits, so Bits should grow like log2(V) on much larger corpora.
	Bits int
	// Tables is the number of bands; more bands raise recall at linear
	// candidate-generation cost (default 16). Bits·Tables is the full
	// signature length used by the Hamming filter, capped at 4096.
	Tables int
	// MaxBucket caps the size of a bucket considered for candidate
	// generation; oversized buckets (degenerate hashes) are skipped
	// (default 2000).
	MaxBucket int
	// MultiProbe additionally probes, in every band, the buckets
	// reached by flipping the band's one or two least-confident bits
	// (the hyperplanes the vertex lies closest to — the flips most
	// likely to recover a near neighbour), trading candidate-generation
	// time for recall without more tables. The recommended setting
	// leaves it off and spends the budget on Refine sweeps instead.
	MultiProbe bool
	// Rerank is the number of Hamming-filter survivors re-ranked with
	// the exact cosine per query. 0 means 4·K+24.
	Rerank int
	// Refine is the number of neighbour-of-neighbour refinement sweeps
	// (NN-descent style, Dong et al. 2011) run after LSH seeding: each
	// sweep exact-scores, for every vertex, its current neighbours,
	// their neighbours, its reverse neighbours, and their neighbours,
	// and keeps the top K. Sweeps repair the recall the banded seed
	// trades away; new-edge flags make sweeps after the first cost a
	// fraction of the first. 0 means 5; negative disables refinement.
	Refine int
	// Seed for the random hyperplanes.
	Seed int64
	// Workers bounds parallelism (default: the BuilderConfig worker
	// count, itself defaulting to GOMAXPROCS).
	Workers int
}

// defaults fills unset knobs in place. It never rejects — validation is
// a separate, tested step (validate) so bad explicit values fail loudly
// instead of being silently clamped. Rerank's zero value is resolved
// against K in knnLSH, the only place K is known.
func (c *LSHConfig) defaults() {
	if c.Bits <= 0 {
		c.Bits = 8
	}
	if c.Tables <= 0 {
		c.Tables = 16
	}
	if c.MaxBucket <= 0 {
		c.MaxBucket = 2000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// validate rejects configurations defaults cannot repair. Bits beyond 32
// would silently truncate: band signatures are uint32, so plane 33 and up
// of a band would never influence a bucket while still costing hashing
// work.
func (c *LSHConfig) validate() error {
	if c.Bits > 32 {
		return fmt.Errorf("graph: LSH Bits = %d exceeds 32 (signatures are uint32)", c.Bits)
	}
	if c.Bits*c.Tables > 4096 {
		return fmt.Errorf("graph: LSH Bits*Tables = %d exceeds 4096 planes", c.Bits*c.Tables)
	}
	return nil
}

// signWord derives 64 hyperplane signs for one feature with a single
// splitmix64-style hash: bit p of the returned word is the sign of
// hyperplane word*64+p for this feature. One hash per (feature, 64-plane
// block) replaces the previous one hash per (plane, feature).
func signWord(feat int32, word int, seed int64) uint64 {
	x := uint64(uint32(feat))*0x9e3779b97f4a7c15 ^ uint64(word)*0xbf58476d1ce4e5b9 ^ uint64(seed)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bandOf extracts band t (nbits wide) of a full signature.
func bandOf(sig []uint64, t, nbits int) uint32 {
	start := t * nbits
	w, off := start>>6, uint(start&63)
	v := sig[w] >> off
	if off+uint(nbits) > 64 {
		v |= sig[w+1] << (64 - off)
	}
	return uint32(v) & (uint32(1)<<uint(nbits) - 1)
}

// lshIndex is the built banded-signature index. Per band (table), the
// non-zero-norm vertices are sorted by (band signature, id) into a flat
// bucket CSR; bucket b holds verts[bucketOff[b]:bucketOff[b+1]], and the
// buckets of band t form the contiguous range
// tableBucket[t]..tableBucket[t+1] with bucketSig ascending, so a
// multi-probe lookup is a binary search. entrySigs carries a copy of each
// entry's full signature inline, in bucket order, so the Hamming scan
// reads memory sequentially.
type lshIndex struct {
	n, nf        int
	bits, tables int
	sigWords     int
	maxBucket    int
	multiProbe   bool

	fullSigs    []uint64 // vertex-major: fullSigs[v*sigWords : (v+1)*sigWords]
	bands       []uint32 // table-major band signatures: bands[t*n+v]
	probe       []uint16 // table-major: two least-confident bit indexes, b1 | b2<<8
	verts       []int32  // per table, live vertices sorted by (band, id)
	entrySigs   []uint64 // full signature of verts[e] at e*sigWords, inline
	bucketOf    []int32  // table-major: bucket index of vertex v in table t
	bucketOff   []int32  // bucket -> start offset into verts; len buckets+1
	bucketSig   []uint32 // bucket -> band signature
	tableBucket []int32  // table -> first bucket index; len tables+1
}

// newLSHIndex hashes every vector into one long banded signature and
// builds the bucket CSR. Zero-norm vertices are left out of every bucket:
// they can never contribute a positive-weight edge, and packing them into
// the degenerate all-ones bucket would push it past MaxBucket for
// everyone else. Deterministic for a fixed seed regardless of worker
// count: each vertex's signature and probe bits are pure functions of its
// vector, and bucket order is fixed by (signature, vertex id).
func newLSHIndex(vecs []sparseVec, lsh LSHConfig) *lshIndex {
	n := len(vecs)
	nf := 0
	for i := range vecs {
		for _, id := range vecs[i].ids {
			if int(id) >= nf {
				nf = int(id) + 1
			}
		}
	}
	planes := lsh.Bits * lsh.Tables
	words := (planes + 63) / 64

	// Per-feature sign blocks: words consecutive uint64s per feature,
	// one hash each.
	signs := make([]uint64, nf*words)
	for f := 0; f < nf; f++ {
		for w := 0; w < words; w++ {
			signs[f*words+w] = signWord(int32(f), w, lsh.Seed)
		}
	}

	ix := &lshIndex{
		n: n, nf: nf, bits: lsh.Bits, tables: lsh.Tables,
		sigWords:   words,
		maxBucket:  lsh.MaxBucket,
		multiProbe: lsh.MultiProbe,
		fullSigs:   make([]uint64, n*words),
		bands:      make([]uint32, lsh.Tables*n),
		probe:      make([]uint16, lsh.Tables*n),
	}

	// Signature pass, contiguous worker blocks: accumulate ±val per
	// plane over the vector's features (branchless — a mispredicted
	// sign branch per plane would dominate), threshold at 0, and record
	// each band's two least-confident planes for directed probing.
	features.ForBlocks(n, lsh.Workers, func(_, lo, hi int) {
		acc := make([]float64, planes)
		for vi := lo; vi < hi; vi++ {
			v := &vecs[vi]
			for p := range acc {
				acc[p] = 0
			}
			for k, id := range v.ids {
				pv := [2]float64{-v.vals[k], v.vals[k]}
				sw := signs[int(id)*words : int(id)*words+words]
				for p := 0; p < planes; p++ {
					acc[p] += pv[sw[p>>6]>>(uint(p)&63)&1]
				}
			}
			sig := ix.fullSigs[vi*words : (vi+1)*words]
			for p := 0; p < planes; p++ {
				if acc[p] >= 0 {
					sig[p>>6] |= 1 << (uint(p) & 63)
				}
			}
			for t := 0; t < lsh.Tables; t++ {
				ix.bands[t*n+vi] = bandOf(sig, t, lsh.Bits)
				// Two planes with the smallest |margin|, ties broken by
				// bit index: the flips most likely to recover a near
				// neighbour separated by a knife-edge hyperplane.
				b1, b2 := 0, 0
				m1, m2 := math.Inf(1), math.Inf(1)
				for b := 0; b < lsh.Bits; b++ {
					m := math.Abs(acc[t*lsh.Bits+b])
					switch {
					case m < m1:
						b2, m2 = b1, m1
						b1, m1 = b, m
					case m < m2:
						b2, m2 = b, m
					}
				}
				ix.probe[t*n+vi] = uint16(b1) | uint16(b2)<<8
			}
		}
	})

	live := make([]int32, 0, n)
	for vi := range vecs {
		if vecs[vi].norm > 0 {
			live = append(live, int32(vi))
		}
	}
	m := len(live)

	// Bucket CSR: per band, sort the live vertex ids by (band signature,
	// id), record bucket boundaries, and copy each entry's full signature
	// inline. Up to 16 bits a counting sort over the 2^Bits band values
	// is O(m) (iterating ids ascending keeps buckets id-sorted); wider
	// bands would need a gigabyte-scale count array, so they fall back to
	// a comparison sort.
	ix.verts = make([]int32, lsh.Tables*m)
	ix.entrySigs = make([]uint64, lsh.Tables*m*words)
	ix.bucketOf = make([]int32, lsh.Tables*n)
	ix.tableBucket = make([]int32, lsh.Tables+1)
	var cnt []int32
	if lsh.Bits <= 16 {
		cnt = make([]int32, (1<<uint(lsh.Bits))+1)
	}
	for t := 0; t < lsh.Tables; t++ {
		bands := ix.bands[t*n : (t+1)*n]
		vs := ix.verts[t*m : (t+1)*m]
		if cnt != nil {
			nb := 1 << uint(lsh.Bits)
			for i := range cnt {
				cnt[i] = 0
			}
			for _, vi := range live {
				cnt[bands[vi]+1]++
			}
			for b := 0; b < nb; b++ {
				cnt[b+1] += cnt[b]
			}
			for _, vi := range live {
				b := bands[vi]
				vs[cnt[b]] = vi
				cnt[b]++
			}
		} else {
			copy(vs, live)
			slices.SortFunc(vs, func(a, b int32) int {
				if ba, bb := bands[a], bands[b]; ba != bb {
					if ba < bb {
						return -1
					}
					return 1
				}
				return int(a - b)
			})
		}
		for j, vi := range vs {
			copy(ix.entrySigs[(t*m+j)*words:(t*m+j+1)*words], ix.fullSigs[int(vi)*words:(int(vi)+1)*words])
		}
		// Walk the sorted entries emitting one bucket per distinct band
		// value.
		for start := 0; start < m; {
			b := bands[vs[start]]
			end := start + 1
			for end < m && bands[vs[end]] == b {
				end++
			}
			bk := int32(len(ix.bucketSig))
			ix.bucketSig = append(ix.bucketSig, b)
			ix.bucketOff = append(ix.bucketOff, int32(t*m+start))
			for j := start; j < end; j++ {
				ix.bucketOf[t*n+int(vs[j])] = bk
			}
			start = end
		}
		ix.tableBucket[t+1] = int32(len(ix.bucketSig))
	}
	ix.bucketOff = append(ix.bucketOff, int32(lsh.Tables*m))
	return ix
}

// lshScratch is the per-worker query scratch: the raw scanned (Hamming,
// id) pairs with their Hamming histogram, the selected candidate list,
// the dense scatter array for exact re-ranking, and the reusable edge
// buffer. All buffers are pre-sized or reach a steady high-water mark,
// so steady state allocates nothing (TestLSHCandidateAllocGuard).
type lshScratch struct {
	m      int
	pairs  []uint64 // scanned candidates packed as ham<<32 | id
	hist   []int32  // pair count per Hamming distance
	cand   []int32  // selected candidate ids
	edges  []Edge
	qdense []float64 // feature-indexed scatter of the current query vector
}

func (ix *lshIndex) newScratch(m int) *lshScratch {
	return &lshScratch{
		m:      m,
		pairs:  make([]uint64, 0, 4096),
		hist:   make([]int32, ix.bits*ix.tables+1),
		cand:   make([]int32, 0, m),
		qdense: make([]float64, ix.nf),
	}
}

// scanBucket streams bucket b — ids and inline full signatures, both
// sequential — through the Hamming computation, appending packed
// (ham, id) pairs and counting the Hamming histogram. No branches beyond
// the oversized-bucket (degenerate hash) skip: selection happens once
// per query in candidates, not once per entry.
func (ix *lshIndex) scanBucket(b int32, qs []uint64, s *lshScratch) {
	lo, hi := int(ix.bucketOff[b]), int(ix.bucketOff[b+1])
	if hi-lo > ix.maxBucket {
		return
	}
	w := ix.sigWords
	if w == 2 {
		// The recommended 128-plane setting: keep the two query words in
		// registers.
		q0, q1 := qs[0], qs[1]
		for e := lo; e < hi; e++ {
			ham := uint64(bits.OnesCount64(ix.entrySigs[e*2]^q0) + bits.OnesCount64(ix.entrySigs[e*2+1]^q1))
			s.pairs = append(s.pairs, ham<<32|uint64(uint32(ix.verts[e])))
			s.hist[ham]++
		}
		return
	}
	for e := lo; e < hi; e++ {
		es := ix.entrySigs[e*w : e*w+w]
		var ham uint64
		for k := 0; k < w; k++ {
			ham += uint64(bits.OnesCount64(es[k] ^ qs[k]))
		}
		s.pairs = append(s.pairs, ham<<32|uint64(uint32(ix.verts[e])))
		s.hist[ham]++
	}
}

// candidates fills s.cand with the (up to m) best candidates for query
// vertex vi by Hamming distance on the full signature, drawn from the
// vertex's own bucket in every band plus — with MultiProbe — the buckets
// reached by flipping the band's two least-confident bits (singly and
// together). Selection is by histogram: the admission cutoff is the
// smallest Hamming distance whose cumulative pair count reaches m, and
// only the admitted pairs are sorted and deduplicated. The result is a
// deterministic function of the query alone — the admitted set is
// defined by values, not visit order — so neither bucket layout nor
// worker partition affects it.
func (ix *lshIndex) candidates(vi int32, s *lshScratch) {
	s.pairs = s.pairs[:0]
	s.cand = s.cand[:0]
	qs := ix.fullSigs[int(vi)*ix.sigWords : (int(vi)+1)*ix.sigWords]
	for t := 0; t < ix.tables; t++ {
		ix.scanBucket(ix.bucketOf[t*ix.n+int(vi)], qs, s)
		if !ix.multiProbe {
			continue
		}
		band := ix.bands[t*ix.n+int(vi)]
		pb := ix.probe[t*ix.n+int(vi)]
		m1 := uint32(1) << uint(pb&0xff)
		m2 := uint32(1) << uint(pb>>8)
		probes := [3]uint32{band ^ m1, band ^ m2, band ^ m1 ^ m2}
		np := 3
		if m1 == m2 { // Bits == 1: both flips name the same plane
			np = 1
		}
		lo, hi := int(ix.tableBucket[t]), int(ix.tableBucket[t+1])
		for p := 0; p < np; p++ {
			want := probes[p]
			// Binary search the band's ascending bucket signatures.
			b := lo + sort.Search(hi-lo, func(i int) bool { return ix.bucketSig[lo+i] >= want })
			if b < hi && ix.bucketSig[b] == want {
				ix.scanBucket(int32(b), qs, s)
			}
		}
	}

	// Histogram cut: the smallest Hamming distance admitting at least m
	// raw pairs (duplicates across bands inflate the raw count, so the
	// deduplicated selection may come out slightly under m — acceptable
	// slack, never an overrun). The histogram is reset by walking the
	// same bins the scan touched.
	cut, total := len(s.hist)-1, int32(0)
	for h := range s.hist {
		total += s.hist[h]
		if total >= int32(s.m) {
			cut = h
			break
		}
	}
	for h := range s.hist {
		s.hist[h] = 0
	}
	// Compact the admitted pairs in place, sort by (ham, id), dedup.
	w := 0
	bar := uint64(cut+1) << 32
	for _, p := range s.pairs {
		if p < bar {
			s.pairs[w] = p
			w++
		}
	}
	admitted := s.pairs[:w]
	slices.Sort(admitted)
	self := uint32(vi)
	var prev uint64
	for i, p := range admitted {
		if i > 0 && p == prev {
			continue
		}
		prev = p
		if id := uint32(p); id != self {
			if len(s.cand) == s.m {
				break
			}
			s.cand = append(s.cand, int32(id))
		}
	}
}

// knnLSH finds approximate nearest neighbours via banded
// random-hyperplane signatures: bucket collisions generate candidates,
// the Hamming filter keeps the Rerank best, the exact cosine ranks those
// into a seed top K, and Refine neighbour-of-neighbour sweeps repair the
// recall the seed trades away. Candidates are scored by scattering the
// query into a dense feature-indexed array and gathering over each
// candidate's features in ascending feature order — bit-identical to the
// two-pointer sparse merge (the zero entries of the scatter array
// contribute exact +0.0 terms) at a fraction of the branching. lsh must
// be defaulted and validated by the caller (Build does both).
func knnLSH(vecs []sparseVec, cfg BuilderConfig, lsh LSHConfig) [][]Edge {
	lsh.defaults()
	n := len(vecs)
	// Refinement needs a working degree of ~10 to keep the k-NN graph
	// connected enough for descent; for smaller K the working lists are
	// over-provisioned and truncated to K at the end.
	kk := cfg.K
	if kk < 10 {
		kk = 10
	}
	rerank := lsh.Rerank
	if rerank <= 0 {
		rerank = 4*kk + 24
	}
	if rerank < kk {
		rerank = kk
	}
	ix := newLSHIndex(vecs, lsh)
	out := make([][]Edge, n)
	features.ForBlocks(n, lsh.Workers, func(_, lo, hi int) {
		s := ix.newScratch(rerank)
		for vi := lo; vi < hi; vi++ {
			q := &vecs[vi]
			if q.norm == 0 {
				continue
			}
			ix.candidates(int32(vi), s)
			for k, id := range q.ids {
				s.qdense[id] = q.vals[k]
			}
			s.edges = s.edges[:0]
			for _, c := range s.cand {
				cv := &vecs[c]
				var dot float64
				for k, id := range cv.ids {
					dot += s.qdense[id] * cv.vals[k]
				}
				if dot == 0 {
					continue
				}
				// The shared top-K fold from build.go: same tie-break,
				// insertion-order independent.
				s.edges = insertTopKEdge(s.edges, Edge{To: c, Weight: dot / (q.norm * cv.norm)}, kk, nil)
			}
			for _, id := range q.ids {
				s.qdense[id] = 0
			}
			if len(s.edges) > 0 {
				out[vi] = append(make([]Edge, 0, len(s.edges)), s.edges...)
			}
		}
	})
	sweeps := lsh.Refine
	if sweeps == 0 {
		sweeps = 5
	}
	// Every seed edge counts as new: the first sweep tries every pair.
	isNew := make([][]bool, n)
	for v := range out {
		if len(out[v]) > 0 {
			isNew[v] = make([]bool, len(out[v]))
			for i := range isNew[v] {
				isNew[v][i] = true
			}
		}
	}
	for sw := 0; sw < sweeps; sw++ {
		out, isNew = refineNeighbors(vecs, out, isNew, kk, lsh.Workers, ix.nf)
	}
	if kk > cfg.K {
		// Lists are sorted by the fold order, so the true top K is a
		// prefix of the over-provisioned working list.
		for v := range out {
			if len(out[v]) > cfg.K {
				out[v] = append(make([]Edge, 0, cfg.K), out[v][:cfg.K]...)
			}
		}
	}
	return out
}

// refineNeighbors runs one neighbour-of-neighbour sweep (the local-join
// step of NN-descent): for every vertex it exact-scores the union of its
// current neighbours's neighbours and its reverse neighbours (and
// theirs), and folds them into the carried-over top K. The sweep is
// double-buffered — every worker reads the previous round's adjacency
// and writes only its own block of the next — so the result is
// bit-identical for every worker count, unlike the asynchronous
// formulation. Because the previous list is carried over and scoring is
// exact, a sweep never makes a list worse.
//
// isNew flags edges absent from the round before (Dong et al.'s
// incremental search): a mediated pair is scored only when at least one
// of its two mediating edges is new — an old-old pair was already tried
// the sweep both edges first coexisted, so retrying it cannot change the
// result. Later sweeps therefore cost a fraction of the first.
func refineNeighbors(vecs []sparseVec, prev [][]Edge, prevIsNew [][]bool, k, workers, nf int) ([][]Edge, [][]bool) {
	n := len(prev)
	// Flattened reverse adjacency of the previous round, carrying each
	// reverse edge's newness.
	revOff := make([]int32, n+1)
	for v := range prev {
		for _, e := range prev[v] {
			revOff[e.To+1]++
		}
	}
	for v := 0; v < n; v++ {
		revOff[v+1] += revOff[v]
	}
	rev := make([]int32, revOff[n])
	revNew := make([]bool, revOff[n])
	pos := make([]int32, n)
	copy(pos, revOff[:n])
	for v := range prev {
		for i, e := range prev[v] {
			rev[pos[e.To]] = int32(v)
			revNew[pos[e.To]] = prevIsNew[v][i]
			pos[e.To]++
		}
	}

	next := make([][]Edge, n)
	nextIsNew := make([][]bool, n)
	features.ForBlocks(n, workers, func(_, lo, hi int) {
		qdense := make([]float64, nf)
		seen := make([]int32, n)
		inPrev := make([]int32, n)
		epoch := int32(0)
		var edges []Edge
		score := func(vi int32, c int32) {
			if c == vi || seen[c] == epoch {
				return
			}
			seen[c] = epoch
			cv := &vecs[c]
			var dot float64
			for j, id := range cv.ids {
				dot += qdense[id] * cv.vals[j]
			}
			if dot == 0 {
				return
			}
			edges = insertTopKEdge(edges, Edge{To: c, Weight: dot / (vecs[vi].norm * cv.norm)}, k, nil)
		}
		for vi := lo; vi < hi; vi++ {
			q := &vecs[vi]
			if q.norm == 0 {
				continue
			}
			epoch++
			for j, id := range q.ids {
				qdense[id] = q.vals[j]
			}
			// Carry the previous list (already exact) and mark its
			// members: no re-scoring, and mediated re-encounters skip.
			edges = append(edges[:0], prev[vi]...)
			for _, e := range prev[vi] {
				seen[e.To] = epoch
				inPrev[e.To] = epoch
			}
			v32 := int32(vi)
			for i, e := range prev[vi] {
				eNew := prevIsNew[vi][i]
				for j, e2 := range prev[e.To] {
					if eNew || prevIsNew[e.To][j] {
						score(v32, e2.To)
					}
				}
			}
			for ri := revOff[vi]; ri < revOff[vi+1]; ri++ {
				r, rNew := rev[ri], revNew[ri]
				if rNew {
					score(v32, r)
				}
				for j, e2 := range prev[r] {
					if rNew || prevIsNew[r][j] {
						score(v32, e2.To)
					}
				}
			}
			for _, id := range q.ids {
				qdense[id] = 0
			}
			if len(edges) > 0 {
				next[vi] = append(make([]Edge, 0, len(edges)), edges...)
				nw := make([]bool, len(edges))
				for i, e := range edges {
					nw[i] = inPrev[e.To] != epoch
				}
				nextIsNew[vi] = nw
			}
		}
	})
	return next, nextIsNew
}

// Recall measures the fraction of exact k-NN edges recovered by an
// approximate neighbour list (ignoring weights).
func Recall(exact, approx [][]Edge) float64 {
	var hit, total int
	for v := range exact {
		want := make(map[int32]bool, len(exact[v]))
		for _, e := range exact[v] {
			want[e.To] = true
			total++
		}
		if v < len(approx) {
			for _, e := range approx[v] {
				if want[e.To] {
					hit++
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
