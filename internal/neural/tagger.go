package neural

import (
	"fmt"
	"math/rand"
	"strings"
	"unicode"

	"repro/internal/corpus"
	"repro/internal/optimize"
)

// Arch selects the tagger architecture.
type Arch int

const (
	// LSTMCRF is the word-level bi-directional LSTM with a CRF output
	// layer of Lample et al. (2016), the paper's "LSTM-CRF" row.
	LSTMCRF Arch = iota
	// CharAttention adds a character-level bi-LSTM per word and combines
	// word and character representations through a learned sigmoid
	// attention gate, in the spirit of Rei et al. (2016).
	CharAttention
)

func (a Arch) String() string {
	if a == CharAttention {
		return "Char-Attention-LSTM-CRF"
	}
	return "LSTM-CRF"
}

// TaggerConfig controls architecture and training.
type TaggerConfig struct {
	Arch       Arch
	WordDim    int     // word embedding size (default 32)
	Hidden     int     // LSTM hidden size per direction (default 32)
	CharHidden int     // char LSTM hidden per direction (default WordDim/2)
	Epochs     int     // passes over the training data (default 8)
	Rate       float64 // Adam learning rate (default 1e-3)
	MinCount   int     // words rarer than this become <UNK> (default 2)
	Seed       int64
	Clip       float64 // gradient norm clip (default 5)
	// WordDropout replaces training tokens with <UNK> at this probability
	// (Lample et al.'s singleton-dropout trick), teaching the model to
	// use context for unseen surfaces. 0 disables.
	WordDropout float64
	// Progress, if non-nil, receives per-epoch train loss and dev F1.
	Progress func(epoch int, loss, devF1 float64)
}

func (c *TaggerConfig) defaults() {
	if c.WordDim <= 0 {
		c.WordDim = 32
	}
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.CharHidden <= 0 {
		c.CharHidden = c.WordDim / 2
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.Rate <= 0 {
		c.Rate = 1e-3
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	if c.Clip <= 0 {
		c.Clip = 5
	}
}

// Tagger is a trained neural sequence tagger.
type Tagger struct {
	cfg   TaggerConfig
	vocab map[string]int
	chars map[rune]int

	st               *store
	wordEmb          view
	charEmb          view
	charFwd, charBwd *lstm
	gate             view // WordDim×(2·WordDim) attention gate (char variant)
	gateB            view
	fwd, bwd         *lstm
	out              view // numTags×(2·Hidden)
	outB             view
	crf              *crfLayer
}

const (
	unkToken = "<UNK>"
	numToken = "<NUM>"
)

// normWord maps a token to its vocabulary form.
func normWord(w string) string {
	allDigit := len(w) > 0
	for _, r := range w {
		if !unicode.IsDigit(r) {
			allDigit = false
			break
		}
	}
	if allDigit {
		return numToken
	}
	return strings.ToLower(w)
}

// TrainTagger fits a tagger on train, early-stopping on token accuracy
// over dev (the paper notes both neural baselines require a dev set; it
// carves one out of the training data). dev may be nil, in which case the
// final epoch's parameters are kept.
func TrainTagger(train, dev *corpus.Corpus, cfg TaggerConfig) (*Tagger, error) {
	cfg.defaults()
	if len(train.Sentences) == 0 {
		return nil, fmt.Errorf("neural: empty training corpus")
	}
	for _, s := range train.Sentences {
		if s.Tags == nil {
			return nil, fmt.Errorf("neural: unlabelled training sentence %s", s.ID)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	t := &Tagger{cfg: cfg, vocab: map[string]int{}, chars: map[rune]int{}, st: &store{}}
	// Vocabulary. Words get ids in first-occurrence order, so embedding
	// rows are initialised in the same order on every run with one Seed.
	counts := map[string]int{}
	var words []string
	for _, s := range train.Sentences {
		for _, tok := range s.Tokens {
			w := normWord(tok.Text)
			if counts[w] == 0 {
				words = append(words, w)
			}
			counts[w]++
			for _, r := range tok.Text {
				if _, ok := t.chars[r]; !ok {
					t.chars[r] = len(t.chars)
				}
			}
		}
	}
	t.vocab[unkToken] = 0
	t.vocab[numToken] = 1
	for _, w := range words {
		if counts[w] >= cfg.MinCount && w != numToken {
			if _, ok := t.vocab[w]; !ok {
				t.vocab[w] = len(t.vocab)
			}
		}
	}

	// Layers (allocation order shared with LoadTagger via allocLayers).
	if err := t.allocLayers(len(t.vocab), len(t.chars), rng, true); err != nil {
		return nil, err
	}

	opt := optimize.NewAdam(len(t.st.params), cfg.Rate)
	opt.Clip = cfg.Clip

	// Dense (non-embedding) parameter indices, updated every step; the
	// embedding tables are updated sparsely per touched row (lazy Adam).
	isEmb := func(i int) bool {
		if i >= t.wordEmb.off && i < t.wordEmb.off+len(t.wordEmb.w) {
			return true
		}
		if cfg.Arch == CharAttention && i >= t.charEmb.off && i < t.charEmb.off+len(t.charEmb.w) {
			return true
		}
		return false
	}
	var denseIdx []int
	for i := range t.st.params {
		if !isEmb(i) {
			denseIdx = append(denseIdx, i)
		}
	}
	idxBuf := make([]int, 0, len(denseIdx)+256)

	order := make([]int, len(train.Sentences))
	for i := range order {
		order[i] = i
	}
	var best []float64
	bestDev := -1.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		for _, idx := range order {
			s := train.Sentences[idx]
			if len(s.Tokens) == 0 {
				continue
			}
			t.st.zeroGrads()
			loss, fs := t.lossAndGradR(s, rng)
			total += loss
			idxBuf = append(idxBuf[:0], denseIdx...)
			idxBuf = t.appendTouched(idxBuf, fs)
			opt.UpdateAt(t.st.params, t.st.grads, idxBuf)
		}
		devScore := 0.0
		if dev != nil && len(dev.Sentences) > 0 {
			devScore = t.tokenAccuracy(dev)
			if devScore > bestDev {
				bestDev = devScore
				best = append(best[:0], t.st.params...)
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, total/float64(len(order)), devScore)
		}
	}
	if best != nil {
		copy(t.st.params, best)
	}
	return t, nil
}

// forward computes the emission lattice for a sentence, returning all the
// traces needed to backpropagate. When train is false, traces are still
// produced but cheap to ignore.
type forwardState struct {
	words    []string
	wordIDs  []int
	xs       [][]float64 // gated inputs to the BiLSTM
	emb      [][]float64 // raw word embeddings (char variant)
	charRepr [][]float64
	gateAct  [][]float64
	charTrF  []*lstmTrace
	charTrB  []*lstmTrace
	charIDs  [][]int
	trF, trB *lstmTrace
	hs       [][]float64 // concatenated BiLSTM states
	emit     [][]float64
}

func (t *Tagger) forward(s *corpus.Sentence, dropRNG *rand.Rand) *forwardState {
	n := len(s.Tokens)
	fs := &forwardState{
		words:   make([]string, n),
		wordIDs: make([]int, n),
		xs:      make([][]float64, n),
	}
	D := t.cfg.WordDim
	if t.cfg.Arch == CharAttention {
		fs.emb = make([][]float64, n)
		fs.charRepr = make([][]float64, n)
		fs.gateAct = make([][]float64, n)
		fs.charTrF = make([]*lstmTrace, n)
		fs.charTrB = make([]*lstmTrace, n)
		fs.charIDs = make([][]int, n)
	}
	for i, tok := range s.Tokens {
		fs.words[i] = tok.Text
		id, ok := t.vocab[normWord(tok.Text)]
		if !ok {
			id = t.vocab[unkToken]
		}
		if dropRNG != nil && t.cfg.WordDropout > 0 && dropRNG.Float64() < t.cfg.WordDropout {
			id = t.vocab[unkToken]
		}
		fs.wordIDs[i] = id
		w, _ := t.wordEmb.row(id)
		if t.cfg.Arch != CharAttention {
			fs.xs[i] = w
			continue
		}
		// Character representation.
		runes := []rune(tok.Text)
		ids := make([]int, len(runes))
		cx := make([][]float64, len(runes))
		rcx := make([][]float64, len(runes))
		for j, r := range runes {
			cid, ok := t.chars[r]
			if !ok {
				cid = len(t.chars) // OOV char row
			}
			ids[j] = cid
			e, _ := t.charEmb.row(cid)
			cx[j] = e
			rcx[len(runes)-1-j] = e
		}
		fs.charIDs[i] = ids
		var cr []float64
		if len(runes) > 0 {
			hf, trf := t.charFwd.Forward(cx)
			hb, trb := t.charBwd.Forward(rcx)
			fs.charTrF[i], fs.charTrB[i] = trf, trb
			cr = append(append([]float64{}, hf[len(hf)-1]...), hb[len(hb)-1]...)
		} else {
			cr = make([]float64, D)
		}
		fs.charRepr[i] = cr
		fs.emb[i] = w
		// Attention gate m = σ(G[w;c]+b); x = m⊙w + (1−m)⊙c.
		zc := make([]float64, 2*D)
		copy(zc, w)
		copy(zc[D:], cr)
		m := make([]float64, D)
		x := make([]float64, D)
		for d := 0; d < D; d++ {
			gRow, _ := t.gate.row(d)
			sum := t.gateB.w[d]
			for k, zv := range zc {
				sum += gRow[k] * zv
			}
			m[d] = sigmoid(sum)
			x[d] = m[d]*w[d] + (1-m[d])*cr[d]
		}
		fs.gateAct[i] = m
		fs.xs[i] = x
	}

	// BiLSTM.
	rev := make([][]float64, n)
	for i := range fs.xs {
		rev[n-1-i] = fs.xs[i]
	}
	hf, trf := t.fwd.Forward(fs.xs)
	hb, trb := t.bwd.Forward(rev)
	fs.trF, fs.trB = trf, trb
	H := t.cfg.Hidden
	fs.hs = make([][]float64, n)
	fs.emit = make([][]float64, n)
	for i := 0; i < n; i++ {
		h := make([]float64, 2*H)
		copy(h, hf[i])
		copy(h[H:], hb[n-1-i])
		fs.hs[i] = h
		e := make([]float64, numTags)
		for y := 0; y < numTags; y++ {
			oRow, _ := t.out.row(y)
			sum := t.outB.w[y]
			for k, hv := range h {
				sum += oRow[k] * hv
			}
			e[y] = sum
		}
		fs.emit[i] = e
	}
	return fs
}

// appendTouched appends the flat parameter indices of the embedding rows a
// sentence touched (deduplicated).
func (t *Tagger) appendTouched(idx []int, fs *forwardState) []int {
	seen := map[int]bool{}
	for _, id := range fs.wordIDs {
		if seen[id] {
			continue
		}
		seen[id] = true
		base := t.wordEmb.off + id*t.wordEmb.cols
		for d := 0; d < t.wordEmb.cols; d++ {
			idx = append(idx, base+d)
		}
	}
	if t.cfg.Arch == CharAttention {
		cs := map[int]bool{}
		for _, ids := range fs.charIDs {
			for _, id := range ids {
				if cs[id] {
					continue
				}
				cs[id] = true
				base := t.charEmb.off + id*t.charEmb.cols
				for d := 0; d < t.charEmb.cols; d++ {
					idx = append(idx, base+d)
				}
			}
		}
	}
	return idx
}

// lossAndGrad runs a full forward/backward pass for one labelled sentence
// and returns its NLL plus the forward state (for sparse updates).
func (t *Tagger) lossAndGrad(s *corpus.Sentence) (float64, *forwardState) {
	return t.lossAndGradR(s, nil)
}

// lossAndGradR is lossAndGrad with an RNG enabling word dropout.
func (t *Tagger) lossAndGradR(s *corpus.Sentence, dropRNG *rand.Rand) (float64, *forwardState) {
	fs := t.forward(s, dropRNG)
	n := len(fs.emit)
	dEmit := make([][]float64, n)
	for i := range dEmit {
		dEmit[i] = make([]float64, numTags)
	}
	loss := t.crf.Loss(fs.emit, s.Tags, dEmit)

	// Through the output projection.
	H := t.cfg.Hidden
	dH := make([][]float64, n)
	for i := 0; i < n; i++ {
		dh := make([]float64, 2*H)
		for y := 0; y < numTags; y++ {
			g := dEmit[i][y]
			if g == 0 {
				continue
			}
			oRow, oGrad := t.out.row(y)
			for k, hv := range fs.hs[i] {
				oGrad[k] += g * hv
				dh[k] += g * oRow[k]
			}
			t.outB.g[y] += g
		}
		dH[i] = dh
	}

	// Split into forward/backward LSTM gradients.
	dhF := make([][]float64, n)
	dhB := make([][]float64, n)
	for i := 0; i < n; i++ {
		dhF[i] = dH[i][:H]
		dhB[n-1-i] = dH[i][H:]
	}
	dxF := t.fwd.Backward(fs.trF, dhF)
	dxBrev := t.bwd.Backward(fs.trB, dhB)

	D := t.cfg.WordDim
	for i := 0; i < n; i++ {
		dx := make([]float64, D)
		copy(dx, dxF[i])
		for d := 0; d < D; d++ {
			dx[d] += dxBrev[n-1-i][d]
		}
		if t.cfg.Arch != CharAttention {
			_, eg := t.wordEmb.row(fs.wordIDs[i])
			for d := 0; d < D; d++ {
				eg[d] += dx[d]
			}
			continue
		}
		// Through the attention gate.
		w := fs.emb[i]
		cr := fs.charRepr[i]
		m := fs.gateAct[i]
		dw := make([]float64, D)
		dc := make([]float64, D)
		da := make([]float64, D)
		for d := 0; d < D; d++ {
			dw[d] = dx[d] * m[d]
			dc[d] = dx[d] * (1 - m[d])
			dm := dx[d] * (w[d] - cr[d])
			da[d] = dm * m[d] * (1 - m[d])
		}
		zc := make([]float64, 2*D)
		copy(zc, w)
		copy(zc[D:], cr)
		for d := 0; d < D; d++ {
			if da[d] == 0 {
				continue
			}
			gRow, gGrad := t.gate.row(d)
			for k, zv := range zc {
				gGrad[k] += da[d] * zv
				if k < D {
					dw[k] += da[d] * gRow[k]
				} else {
					dc[k-D] += da[d] * gRow[k]
				}
			}
			t.gateB.g[d] += da[d]
		}
		_, eg := t.wordEmb.row(fs.wordIDs[i])
		for d := 0; d < D; d++ {
			eg[d] += dw[d]
		}
		// Through the char BiLSTM (gradient only at the last step of each
		// direction).
		if fs.charTrF[i] == nil {
			continue
		}
		ch := t.cfg.CharHidden
		ln := len(fs.charIDs[i])
		dhf := make([][]float64, ln)
		dhb := make([][]float64, ln)
		for j := 0; j < ln; j++ {
			dhf[j] = make([]float64, ch)
			dhb[j] = make([]float64, ch)
		}
		copy(dhf[ln-1], dc[:ch])
		copy(dhb[ln-1], dc[ch:])
		dcxF := t.charFwd.Backward(fs.charTrF[i], dhf)
		dcxB := t.charBwd.Backward(fs.charTrB[i], dhb)
		for j := 0; j < ln; j++ {
			_, ceg := t.charEmb.row(fs.charIDs[i][j])
			for d := 0; d < ch; d++ {
				ceg[d] += dcxF[j][d] + dcxB[ln-1-j][d]
			}
		}
	}
	return loss, fs
}

// Tag decodes one sentence.
func (t *Tagger) Tag(s *corpus.Sentence) []corpus.Tag {
	if len(s.Tokens) == 0 {
		return nil
	}
	fs := t.forward(s, nil)
	return t.crf.Decode(fs.emit)
}

// TagCorpus decodes every sentence of a corpus.
func (t *Tagger) TagCorpus(c *corpus.Corpus) [][]corpus.Tag {
	out := make([][]corpus.Tag, len(c.Sentences))
	for i, s := range c.Sentences {
		out[i] = t.Tag(s)
	}
	return out
}

// tokenAccuracy is the early-stopping criterion on the dev set.
func (t *Tagger) tokenAccuracy(dev *corpus.Corpus) float64 {
	correct, total := 0, 0
	for _, s := range dev.Sentences {
		if s.Tags == nil || len(s.Tokens) == 0 {
			continue
		}
		got := t.Tag(s)
		for i := range got {
			if got[i] == s.Tags[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// NumParameters returns the total trainable parameter count.
func (t *Tagger) NumParameters() int { return len(t.st.params) }
