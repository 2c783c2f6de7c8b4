package graph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/analysis/assert"
	"repro/internal/corpus"
	"repro/internal/features"
)

// Updater maintains a k-NN similarity graph incrementally as unlabelled
// sentences stream in, instead of rebuilding it from scratch. It retains
// the state a full Build computes and throws away — the inverted index
// (postings), the per-vertex PPMI sparse vectors, and the raw
// co-occurrence counts — and on AddSentences recomputes only the rows
// whose top-K lists can actually change.
//
// Correctness contract: corpus-level PPMI statistics (feature alphabet,
// featTotal, grand total, MI feature selection) are frozen at the base
// corpus. After any sequence of AddSentences calls over batches b1..bn,
// the maintained graph is exactly equal — same neighbour sets, bit-equal
// weights, same CSR arrays — to Build(base ∪ b1 ∪ ... ∪ bn, cfg) with
// cfg.Stats set to the Updater's snapshot, up to the canonical vertex
// renumbering of CanonicalClone (Build orders vertices by sorted 3-gram;
// the Updater keeps ids stable and appends).
//
// Vertex ids are stable: existing ids never change, new 3-grams get ids
// len(Vertices), len(Vertices)+1, ... in first-occurrence order.
//
// An Updater is not safe for concurrent use.
type Updater struct {
	cfg BuilderConfig
	st  *Stats
	g   *Graph

	counts    []map[int32]float64 // per-vertex raw co-occurrence counts
	vertTotal []float64           // per-vertex total count c(v)
	vecs      []sparseVec         // per-vertex PPMI vectors
	postings  [][]posting         // per-feature postings, ascending vertex id
	prevDF    []int               // scratch: pre-batch df of affected features

	// rows holds the internal ranked candidate list per vertex; the
	// graph row is its length-K prefix. The extra entries beyond K (up
	// to knnReserve of them) absorb edge drops: when a changed neighbour
	// falls out of the top K, the replacement usually comes from the
	// reserve with its exact cosine already known, instead of a full
	// postings re-scan. Invariant: rows[v] is an exact ranked prefix of
	// v's candidate list — either complete[v] (every candidate with a
	// positive score is present) or a truncation, in which case every
	// absent candidate scores at or below the last weight. Repairs that
	// push entries into the uncertain zone below that bar truncate the
	// row; a re-scan restores it to full width only when the certain
	// prefix would drop under K.
	rows     [][]Edge
	complete []bool

	// sorted holds all vertex ids in ascending NGram order; rank is its
	// inverse. They supply topK's canonical tie-break (see topK).
	sorted []int32
	rank   []int32

	enum *featureEnum
}

// knnReserve is the number of ranked candidates each Updater row keeps
// beyond the graph's K. A larger reserve turns more edge drops into
// in-place repairs but makes every top-K selection slightly wider.
const knnReserve = 6

// debugCapEvents / debugUncapEvents count MaxDF cap-boundary crossings
// observed by Updater batches across the process — features whose
// postings list crossed the document-frequency cap in either direction.
// Diagnostic only; read them under a debugger or ad-hoc test.
var (
	debugCapEvents   int
	debugUncapEvents int
)

// UpdateResult summarizes one AddSentences batch.
type UpdateResult struct {
	// NewVertices counts 3-grams first seen in this batch (appended ids).
	NewVertices int
	// UpdatedVertices counts pre-existing vertices with new occurrences.
	UpdatedVertices int
	// DirtyRows lists, in ascending id order, every vertex whose
	// neighbour row changed or was recomputed: changed/new vertices,
	// re-scanned rows, and repaired rows.
	DirtyRows []int32
	// RescannedRows counts pre-existing unchanged vertices whose rows had
	// to be re-searched from the postings; RepairedRows counts rows fixed
	// in place (only weights of edges to changed vertices moved).
	RescannedRows, RepairedRows int
	// AffectedFeatures counts the features whose postings changed.
	AffectedFeatures int
}

// NewUpdater builds the graph over the base corpus (exactly as Build
// does) and retains the intermediate state needed for incremental
// maintenance. The corpus-level PPMI statistics are frozen at this
// snapshot; see Updater and BuilderConfig.Stats.
func NewUpdater(base *corpus.Corpus, cfg BuilderConfig) (*Updater, error) {
	if len(base.Sentences) == 0 {
		return nil, fmt.Errorf("graph: empty base corpus")
	}
	if cfg.GraphMode == ModeLSH {
		return nil, fmt.Errorf("graph: incremental maintenance requires the exact search (GraphMode lsh unsupported)")
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Extractor == nil {
		cfg.Extractor = features.NewExtractor(nil)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Stats != nil && cfg.Stats.mode != cfg.Mode {
		return nil, fmt.Errorf("graph: stats snapshot was taken in %v mode, config wants %v", cfg.Stats.mode, cfg.Mode)
	}
	if cfg.Mode == MIFeatures && cfg.Stats == nil {
		if cfg.Tags == nil {
			return nil, fmt.Errorf("graph: MIFeatures mode requires Tags")
		}
		if len(cfg.Tags) != len(base.Sentences) {
			return nil, fmt.Errorf("graph: %d tag rows for %d sentences", len(cfg.Tags), len(base.Sentences))
		}
	}

	vecs, verts, counts, vertTotal, st := vertexVectors(base, cfg)
	cfg.Stats = st
	cfg.Tags = nil // consumed by the snapshot's MI selection
	// Search K+knnReserve wide: the graph rows are the K prefixes (topK's
	// ordered insertion makes the prefix identical to a K-wide search),
	// the tails seed the repair reserve.
	wideCfg := cfg
	wideCfg.K = cfg.K + knnReserve
	rows := knn(vecs, wideCfg)
	neighbors := make([][]Edge, len(rows))
	complete := make([]bool, len(rows))
	for i, r := range rows {
		complete[i] = len(r) < wideCfg.K
		kk := len(r)
		if kk > cfg.K {
			kk = cfg.K
		}
		neighbors[i] = r[:kk]
	}
	g := &Graph{
		Vertices:  verts,
		Index:     make(map[corpus.NGram]int, len(verts)),
		Neighbors: neighbors,
		K:         cfg.K,
	}
	for i, v := range verts {
		g.Index[v] = i
	}
	g.BuildCSR()

	u := &Updater{
		cfg:       cfg,
		st:        st,
		g:         g,
		counts:    counts,
		vertTotal: vertTotal,
		vecs:      vecs,
		rows:      rows,
		complete:  complete,
		enum:      newFeatureEnum(cfg, st.miKeep),
	}
	// Per-feature postings over the frozen feature space, ascending
	// vertex id (base vertices are appended in id order).
	u.postings = make([][]posting, st.alphabet.Len())
	for vi := range vecs {
		v := &vecs[vi]
		for k, id := range v.ids {
			u.postings[id] = append(u.postings[id], posting{v: int32(vi), val: v.vals[k]})
		}
	}
	// Base vertices come from UniqueTrigrams, already in ascending NGram
	// order: canonical rank is the identity.
	u.sorted = make([]int32, len(verts))
	u.rank = make([]int32, len(verts))
	for i := range u.sorted {
		u.sorted[i] = int32(i)
		u.rank[i] = int32(i)
	}
	return u, nil
}

// Graph returns the maintained graph. The Updater owns it: AddSentences
// mutates it in place (appending vertices, rewriting dirty rows and the
// CSR arrays).
func (u *Updater) Graph() *Graph { return u.g }

// Stats returns the frozen corpus-statistics snapshot. Passing it as
// BuilderConfig.Stats to Build reproduces the maintained graph from
// scratch — that equality is the Updater's correctness bar.
func (u *Updater) Stats() *Stats { return u.st }

// AddSentences folds a batch of sentences into the maintained graph:
// new 3-grams are appended as vertices, vectors of changed vertices are
// recomputed under the frozen statistics, the postings index is edited in
// place, and exactly the dirty rows — vertices whose top-K list can have
// changed — are re-searched and patched into the CSR arrays.
func (u *Updater) AddSentences(sents []*corpus.Sentence) (UpdateResult, error) {
	var res UpdateResult
	if len(sents) == 0 {
		return res, nil
	}
	g := u.g
	oldN := len(g.Vertices)

	// Pass 1: register new vertices, accumulate counts, collect the
	// changed set (vertices with new occurrences) in first-touch order.
	isChanged := make([]bool, oldN)
	changed := make([]int32, 0, 64)
	for _, s := range sents {
		words := s.Words()
		u.enum.reset(words)
		for i := range words {
			ng := corpus.Trigram(words, i)
			vi, ok := g.Index[ng]
			if !ok {
				vi = len(g.Vertices)
				g.Index[ng] = vi
				g.Vertices = append(g.Vertices, ng)
				g.Neighbors = append(g.Neighbors, nil)
				u.rows = append(u.rows, nil)
				u.complete = append(u.complete, false)
				u.counts = append(u.counts, make(map[int32]float64, 8))
				u.vertTotal = append(u.vertTotal, 0)
				u.vecs = append(u.vecs, sparseVec{})
				isChanged = append(isChanged, false)
			}
			if !isChanged[vi] {
				isChanged[vi] = true
				changed = append(changed, int32(vi))
			}
			v := vi
			u.enum.position(i, func(f []byte) {
				id := u.st.alphabet.LookupBytes(f)
				if id < 0 {
					return // outside the frozen feature space
				}
				u.counts[v][int32(id)]++
				u.vertTotal[v]++
			})
		}
	}
	n := len(g.Vertices)
	res.NewVertices = n - oldN
	res.UpdatedVertices = len(changed) - res.NewVertices

	// Pass 2: recompute changed vectors and edit the postings index,
	// recording every affected feature with its pre-batch document
	// frequency (for the MaxDF cap-crossing analysis below).
	affected := make([]int32, 0, 256)
	u.prevDF = u.prevDF[:0]
	featSeen := make([]bool, len(u.postings))
	markFeat := func(id int32) {
		if !featSeen[id] {
			featSeen[id] = true
			affected = append(affected, id)
			u.prevDF = append(u.prevDF, len(u.postings[id]))
		}
	}
	for _, vi := range changed {
		old := u.vecs[vi]
		nv := ppmiVec(u.counts[vi], u.vertTotal[vi], u.st)
		u.vecs[vi] = nv
		for _, id := range old.ids {
			markFeat(id)
		}
		for _, id := range nv.ids {
			markFeat(id)
		}
		u.editPostings(vi, &old, &nv)
	}
	res.AffectedFeatures = len(affected)

	// Pass 3: fold the new vertices into the canonical (sorted-NGram)
	// rank — the rows re-scored below tie-break on it. Appending never
	// reorders existing vertices relative to each other, so a sorted
	// merge of the old order with the sorted new ids reproduces the order
	// Build would use on the union corpus.
	if res.NewVertices > 0 {
		newIDs := make([]int32, 0, res.NewVertices)
		for v := oldN; v < n; v++ {
			newIDs = append(newIDs, int32(v))
		}
		sort.Slice(newIDs, func(a, b int) bool {
			return g.Vertices[newIDs[a]] < g.Vertices[newIDs[b]]
		})
		merged := make([]int32, 0, n)
		i, j := 0, 0
		for i < len(u.sorted) && j < len(newIDs) {
			if g.Vertices[u.sorted[i]] < g.Vertices[newIDs[j]] {
				merged = append(merged, u.sorted[i])
				i++
			} else {
				merged = append(merged, newIDs[j])
				j++
			}
		}
		merged = append(merged, u.sorted[i:]...)
		merged = append(merged, newIDs[j:]...)
		u.sorted = merged
		u.rank = make([]int32, n)
		for pos, v := range u.sorted {
			u.rank[v] = int32(pos)
		}
	}

	// Pass 4: classify rows. Postings entries of unchanged vertices never
	// change, so a clean vertex's score against an unchanged candidate is
	// untouched, and its row can only change through a pair with a
	// changed vertex or a feature crossing the MaxDF cap:
	//   - changed/new vertices are re-scored outright (below, reusing
	//     the classification scan);
	//   - a feature crossing the cap (document frequency only grows, so
	//     always uncapped → capped) removes its contribution from every
	//     pair of co-holders; scores only decrease, so the only rows that
	//     can change are those of holders with an in-row edge to another
	//     unchanged co-holder (a dropped edge may let the unknown K+1-th
	//     candidate in → re-scan). Pairs with changed endpoints are
	//     recomputed under the new caps anyway;
	//   - a changed vertex already in an internal row is fine if its new
	//     cosine strictly beats the row's last weight (every outside
	//     candidate is at or below that bar); otherwise it may fall below
	//     the unknown next-ranked candidate → re-scan;
	//   - a changed vertex outside an internal row whose new cosine
	//     strictly beats the row's last weight must enter — its exact
	//     cosine is known from the changed side, so it is merged in
	//     place; an exact tie needs the unknown next candidate's
	//     tie-break → re-scan;
	//   - internal rows shorter than K+knnReserve list *every* candidate
	//     with a positive score, so they are always repairable: replace,
	//     drop, or insert edges with exactly known cosines and re-sort.
	// Repairs rebuild the internal row exactly; the graph row (its K
	// prefix) is marked dirty only when the prefix actually changed.
	needScan := make([]bool, n)
	for _, vi := range changed {
		needScan[vi] = true
	}
	maxDF := u.cfg.MaxDF
	var holderStamp []int32
	crossEpoch := int32(0)
	for ai, f := range affected {
		cappedNow := maxDF > 0 && len(u.postings[f]) > maxDF
		cappedBefore := maxDF > 0 && u.prevDF[ai] > maxDF
		if cappedNow == cappedBefore {
			continue
		}
		if cappedBefore && !cappedNow {
			debugUncapEvents++
		} else {
			debugCapEvents++
		}
		if holderStamp == nil {
			holderStamp = make([]int32, n)
		}
		crossEpoch++
		for _, p := range u.postings[f] {
			holderStamp[p.v] = crossEpoch
		}
		for _, p := range u.postings[f] {
			v := p.v
			if isChanged[v] || needScan[v] {
				continue
			}
			for _, e := range u.rows[v] {
				if holderStamp[e.To] == crossEpoch && !isChanged[e.To] {
					needScan[v] = true
					break
				}
			}
		}
	}

	// Entry bars and changed-edge bookkeeping over the pre-update
	// internal rows. rmin[v] is the weight an outside candidate must
	// reach to alter v's internal row: its last weight when the row is a
	// truncation, 0 when it is complete (any new candidate joins it).
	// inNbrs lists, per changed vertex, the unchanged internal rows
	// holding an entry for it — the pairs whose cosines the
	// classification scan must report back.
	wideK := u.cfg.K + knnReserve
	rmin := make([]float64, n)
	chgNbr := make([]int32, n)
	chgIdx := make([]int32, n)
	for i := range chgIdx {
		chgIdx[i] = -1
	}
	for i, vi := range changed {
		chgIdx[vi] = int32(i)
	}
	inNbrs := make([][]int32, len(changed))
	for v := 0; v < oldN; v++ {
		es := u.rows[v]
		if !u.complete[v] && len(es) > 0 {
			rmin[v] = es[len(es)-1].Weight
		}
		if isChanged[v] {
			continue
		}
		for _, e := range es {
			if isChanged[e.To] {
				chgNbr[v]++
				ci := chgIdx[e.To]
				inNbrs[ci] = append(inNbrs[ci], int32(v))
			}
		}
	}
	// Flat norms and a conservative entry prefilter: scores below
	// bar[c]·|q| cannot reach rmin[c] even after the worst-case rounding
	// of the product (the 1e-12 slack dwarfs the few-ulp error), so the
	// exact divided cosine is computed only for the rare candidates that
	// pass. Postings only list vertices with a non-empty vector, so every
	// touched candidate has a positive norm.
	norms := make([]float64, n)
	bar := make([]float64, n)
	for v := 0; v < n; v++ {
		norms[v] = u.vecs[v].norm
		bar[v] = rmin[v] * norms[v] * (1 - 1e-12)
	}

	// Scan every changed vertex once: its candidate scores classify the
	// clean rows (the cosine of a pair is symmetric and bit-identical
	// from either side — same ascending shared-feature order, same
	// commutative products), and double as its own new top-K row.
	workers := u.cfg.Workers
	if workers > len(changed) {
		workers = len(changed)
	}
	if workers < 1 {
		workers = 1
	}
	type pairUpd struct {
		u, c int32
		cos  float64
	}
	entrantsW := make([][]pairUpd, workers)
	pairsW := make([][]pairUpd, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scores := make([]float64, n)
			seen := make([]int32, n)
			edgeStamp := make([]int32, n)
			epoch := int32(0)
			touched := make([]int32, 0, 1024)
			for ci := w; ci < len(changed); ci += workers {
				vi := changed[ci]
				q := &u.vecs[vi]
				if q.norm == 0 {
					// An emptied vector drops every in-edge: report the
					// pairs as gone (-1) so the owning rows drop them.
					u.rows[vi] = nil
					u.complete[vi] = true
					g.Neighbors[vi] = nil
					for _, in := range inNbrs[ci] {
						pairsW[w] = append(pairsW[w], pairUpd{u: in, c: vi, cos: -1})
					}
					continue
				}
				epoch++
				for _, in := range inNbrs[ci] {
					edgeStamp[in] = epoch
				}
				touched = scoreInto(q, vi, u.postings, maxDF, scores, seen, epoch, touched[:0])
				qn := q.norm
				for _, cand := range touched {
					if scores[cand] < bar[cand]*qn {
						continue
					}
					if isChanged[cand] || edgeStamp[cand] == epoch {
						continue
					}
					cos := scores[cand] / (norms[cand] * qn)
					if cos >= rmin[cand] {
						entrantsW[w] = append(entrantsW[w], pairUpd{u: cand, c: vi, cos: cos})
					}
				}
				// Report the new cosine of every existing in-edge; a pair
				// the scan never touched shares no uncapped feature any
				// more (-1: the edge must drop).
				for _, in := range inNbrs[ci] {
					cos := -1.0
					if seen[in] == epoch {
						cos = scores[in] / (norms[in] * qn)
					}
					pairsW[w] = append(pairsW[w], pairUpd{u: in, c: vi, cos: cos})
				}
				row := topK(scores, touched, q.norm, u.vecs, wideK, u.rank)
				u.rows[vi] = row
				u.complete[vi] = len(row) < wideK
				if len(row) > u.cfg.K {
					row = row[:u.cfg.K]
				}
				g.Neighbors[vi] = row
			}
		}(w)
	}
	wg.Wait()
	// Entrants strictly above the row's entry bar carry their exact
	// cosine into the in-place merge. An entrant tying the bar exactly
	// could still displace an in-row entry of equal weight through the
	// canonical-rank tie-break — but absent candidates at the bar have
	// unknown ranks, so the whole tied weight class becomes uncertain:
	// the repair cuts it (tiedBar) and the prefix check below decides
	// whether a re-scan is needed. rowUpd buckets, per unchanged row,
	// the recomputed cosines of its entries into the changed set (-1:
	// the pair no longer shares an uncapped feature). Flat per-row
	// buckets instead of a global pair-keyed map: the repair loop reads
	// them with a short linear probe (rows hold few changed entries),
	// which profiles measurably cheaper than map hashing.
	entrants := make([][]Edge, n)
	tiedBar := make([]bool, n)
	for _, l := range entrantsW {
		for _, p := range l {
			if p.cos > rmin[p.u] {
				entrants[p.u] = append(entrants[p.u], Edge{To: p.c, Weight: p.cos})
			} else {
				tiedBar[p.u] = true
			}
		}
	}
	rowUpd := make([][]Edge, n)
	for _, l := range pairsW {
		for _, p := range l {
			rowUpd[p.u] = append(rowUpd[p.u], Edge{To: p.c, Weight: p.cos})
		}
	}

	// Repair the internal rows: replace or drop the entries into the
	// changed set, append entrants, re-sort. On a truncated row, entries
	// whose updated weight falls to or below the old entry bar land in
	// the uncertain zone — an absent candidate could outrank them — so
	// the row is cut there; only when the certain prefix would shrink
	// under K does the row need a postings re-scan. The graph row is
	// dirtied only when its K prefix actually moved.
	repaired := make([]int32, 0, 256)
	for v := int32(0); v < int32(oldN); v++ {
		ent := entrants[v]
		if (chgNbr[v] == 0 && len(ent) == 0 && !tiedBar[v]) || isChanged[v] || needScan[v] {
			continue
		}
		es := u.rows[v]
		upd := rowUpd[v]
		row := make([]Edge, 0, len(es)+len(ent))
		for _, e := range es {
			if isChanged[e.To] {
				c := -1.0
				for _, ue := range upd {
					if ue.To == e.To {
						c = ue.Weight
						break
					}
				}
				if c < 0 {
					// The pair no longer shares an uncapped feature —
					// the entry drops.
					continue
				}
				e.Weight = c
			}
			row = append(row, e)
		}
		row = append(row, ent...)
		sortEdgesCanonical(row, u.rank)
		nowComplete := u.complete[v]
		if !nowComplete {
			// Entries strictly below the old bar are uncertain — an absent
			// candidate could outrank them — and are cut. Entries exactly
			// at the bar kept their old tie-break standing against absent
			// candidates, unless the tied weight class itself changed: a
			// tied entrant (unknown rank order against absent ties) voids
			// the whole class, and a changed entry that arrived at the bar
			// is individually uncertain.
			cut := len(row)
			for cut > 0 && row[cut-1].Weight < rmin[v] {
				cut--
			}
			row = row[:cut]
			if tiedBar[v] {
				for cut > 0 && row[cut-1].Weight == rmin[v] { // lint:checked exact tie class is voided wholesale
					cut--
				}
				row = row[:cut]
			} else {
				grp := cut
				for grp > 0 && row[grp-1].Weight == rmin[v] { // lint:checked exact ties keep old standing unless changed
					grp--
				}
				if grp < cut {
					kept := row[:grp]
					for _, e := range row[grp:cut] {
						if !isChanged[e.To] {
							kept = append(kept, e)
						}
					}
					row = kept
				}
			}
		}
		if len(row) > wideK {
			row = row[:wideK]
			nowComplete = false
		}
		if len(row) < u.cfg.K && !nowComplete {
			needScan[v] = true
			continue
		}
		u.rows[v] = row
		u.complete[v] = nowComplete
		pre := row
		if len(pre) > u.cfg.K {
			pre = pre[:u.cfg.K]
		}
		if !edgeRowsEqual(pre, g.Neighbors[v]) {
			g.Neighbors[v] = pre
			repaired = append(repaired, v)
		}
	}
	res.RepairedRows = len(repaired)

	// Pass 5: re-search the rows that need it (changed rows were already
	// re-scored during classification), in parallel, with the same
	// postings-merge kernel the batch build uses.
	rescan := make([]int32, 0, 256)
	for v := 0; v < n; v++ {
		if needScan[v] && !isChanged[v] {
			rescan = append(rescan, int32(v))
		}
	}
	res.RescannedRows = len(rescan)
	workers = u.cfg.Workers
	if workers > len(rescan) {
		workers = len(rescan)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scores := make([]float64, n)
			seen := make([]int32, n)
			epoch := int32(0)
			touched := make([]int32, 0, 1024)
			for di := w; di < len(rescan); di += workers {
				vi := rescan[di]
				q := &u.vecs[vi]
				if q.norm == 0 {
					u.rows[vi] = nil
					u.complete[vi] = true
					g.Neighbors[vi] = nil
					continue
				}
				epoch++
				touched = scoreInto(q, vi, u.postings, maxDF, scores, seen, epoch, touched[:0])
				row := topK(scores, touched, q.norm, u.vecs, wideK, u.rank)
				u.rows[vi] = row
				u.complete[vi] = len(row) < wideK
				if len(row) > u.cfg.K {
					row = row[:u.cfg.K]
				}
				g.Neighbors[vi] = row
			}
		}(w)
	}
	wg.Wait()

	// Changed, re-scanned and repaired rows are disjoint by construction.
	dirty := make([]int32, 0, len(changed)+len(rescan)+len(repaired))
	dirty = append(dirty, changed...)
	dirty = append(dirty, rescan...)
	dirty = append(dirty, repaired...)
	sort.Slice(dirty, func(a, b int) bool { return dirty[a] < dirty[b] })
	res.DirtyRows = dirty

	// Pass 6: patch the CSR mirror — append the new rows, re-offset, and
	// rewrite only the dirty rows.
	g.PatchCSR(dirty)
	if assert.Enabled {
		assert.CSRMonotonic(g.EdgeOffsets, len(g.EdgeTo), "incremental CSR")
	}
	return res, nil
}

// sortEdgesCanonical orders a neighbour row exactly as topK emits it:
// weight descending, exact ties broken by canonical rank — so repaired
// rows are indistinguishable from re-scanned ones.
func sortEdgesCanonical(es []Edge, rank []int32) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Weight != es[j].Weight { // lint:checked exact tie-break matches topK
			return es[i].Weight > es[j].Weight
		}
		return rank[es[i].To] < rank[es[j].To]
	})
}

// edgeRowsEqual reports whether two neighbour rows are identical —
// same targets, bit-equal weights, same order.
func edgeRowsEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].To != b[i].To || a[i].Weight != b[i].Weight { // lint:checked exact row-identity check
			return false
		}
	}
	return true
}

// editPostings applies the support diff between a vertex's old and new
// vector to the inverted index, keeping every postings list sorted by
// vertex id. Both id slices are ascending, so a two-pointer merge
// classifies each feature as updated, dropped, or added.
func (u *Updater) editPostings(vi int32, old, nv *sparseVec) {
	i, j := 0, 0
	for i < len(old.ids) || j < len(nv.ids) {
		switch {
		case j >= len(nv.ids) || (i < len(old.ids) && old.ids[i] < nv.ids[j]):
			u.removePosting(old.ids[i], vi)
			i++
		case i >= len(old.ids) || old.ids[i] > nv.ids[j]:
			u.insertPosting(nv.ids[j], vi, nv.vals[j])
			j++
		default: // feature kept: update the stored value in place
			pl := u.postings[old.ids[i]]
			pl[postingPos(pl, vi)].val = nv.vals[j]
			i++
			j++
		}
	}
}

// postingPos locates vertex v in a postings list sorted by vertex id.
func postingPos(pl []posting, v int32) int {
	return sort.Search(len(pl), func(k int) bool { return pl[k].v >= v })
}

func (u *Updater) insertPosting(f, v int32, val float64) {
	pl := u.postings[f]
	k := postingPos(pl, v)
	pl = append(pl, posting{})
	copy(pl[k+1:], pl[k:])
	pl[k] = posting{v: v, val: val}
	u.postings[f] = pl
}

func (u *Updater) removePosting(f, v int32) {
	pl := u.postings[f]
	k := postingPos(pl, v)
	u.postings[f] = append(pl[:k], pl[k+1:]...)
}

// Clone deep-copies the Updater and its graph, so benchmark and what-if
// updates can run without disturbing the original.
func (u *Updater) Clone() *Updater {
	c := &Updater{
		cfg:       u.cfg,
		st:        u.st, // frozen, safely shared
		counts:    make([]map[int32]float64, len(u.counts)),
		vertTotal: append([]float64(nil), u.vertTotal...),
		vecs:      append([]sparseVec(nil), u.vecs...),
		rows:      append([][]Edge(nil), u.rows...),
		complete:  append([]bool(nil), u.complete...),
		postings:  make([][]posting, len(u.postings)),
		sorted:    append([]int32(nil), u.sorted...),
		rank:      append([]int32(nil), u.rank...),
		enum:      newFeatureEnum(u.cfg, u.st.miKeep),
	}
	for i, m := range u.counts {
		cm := make(map[int32]float64, len(m))
		for k, v := range m {
			cm[k] = v
		}
		c.counts[i] = cm
	}
	for f, pl := range u.postings {
		c.postings[f] = append([]posting(nil), pl...)
	}
	g := u.g
	cg := &Graph{
		Vertices:    append([]corpus.NGram(nil), g.Vertices...),
		Index:       make(map[corpus.NGram]int, len(g.Index)),
		Neighbors:   append([][]Edge(nil), g.Neighbors...),
		K:           g.K,
		EdgeOffsets: append([]int32(nil), g.EdgeOffsets...),
		EdgeTo:      append([]int32(nil), g.EdgeTo...),
		EdgeWeight:  append([]float64(nil), g.EdgeWeight...),
	}
	for k, v := range g.Index {
		cg.Index[k] = v
	}
	c.g = cg
	return c
}
