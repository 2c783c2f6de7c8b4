// Package features implements BANNER-style feature extraction for
// biomedical named entity recognition. Each token position in a sentence is
// mapped to a set of string feature instances (orthographic, lexical,
// character-level, and windowed context features). The same feature
// instances serve two purposes in GraphNER:
//
//   - conjoined with BIO tags they become the binary indicator features of
//     the linear-chain CRF (the BANNER base model);
//   - aggregated per 3-gram they become the PMI vector components from
//     which the similarity graph is built ("All-features" mode in the
//     paper's Table III).
//
// Distributional features in the style of BANNER-ChemDNER — Brown cluster
// bit-path prefixes and word-embedding cluster identities — are plugged in
// through the WordClasser interface, keeping this package independent of
// the packages that learn them.
package features

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/tokenize"
)

// WordClasser supplies distributional word classes learned from unlabelled
// text: Brown cluster paths and/or embedding cluster IDs. Implementations
// must be safe for concurrent use after construction.
type WordClasser interface {
	// Classes returns feature strings for the word, e.g.
	// ["brown4=0110", "brown6=011010", "w2v=17"]. It returns nil for
	// unknown words.
	Classes(word string) []string
}

// MultiClasser combines several WordClassers; the feature lists are
// concatenated. It is how the BANNER-ChemDNER configuration stacks Brown
// cluster paths and word2vec cluster identities.
type MultiClasser []WordClasser

// Classes implements WordClasser.
func (m MultiClasser) Classes(word string) []string {
	var out []string
	for _, c := range m {
		out = append(out, c.Classes(word)...)
	}
	return out
}

// LexiconClasser emits dictionary-membership features, the gene-lexicon
// features BANNER optionally uses: a word contained in any known entity
// surface yields "LEX" plus "LEXFULL" when the word alone is a complete
// entry. Matching is case-insensitive.
type LexiconClasser struct {
	full  map[string]bool
	parts map[string]bool
}

// NewLexiconClasser builds a classer from entity surface forms
// (multi-word surfaces contribute their individual words to partial
// matching).
func NewLexiconClasser(surfaces []string) *LexiconClasser {
	l := &LexiconClasser{full: make(map[string]bool), parts: make(map[string]bool)}
	for _, s := range surfaces {
		low := strings.ToLower(s)
		l.full[low] = true
		for _, w := range strings.Fields(low) {
			l.parts[w] = true
		}
	}
	return l
}

// Classes implements WordClasser.
func (l *LexiconClasser) Classes(word string) []string {
	low := strings.ToLower(word)
	switch {
	case l.full[low]:
		return []string{"LEX", "LEXFULL"}
	case l.parts[low]:
		return []string{"LEX"}
	}
	return nil
}

// Extractor generates feature instances for sentence positions.
// The zero value is a plain BANNER-style extractor; attach a WordClasser
// for BANNER-ChemDNER-style distributional features.
type Extractor struct {
	// Classer, if non-nil, contributes distributional features.
	Classer WordClasser
	// WindowSize is the half-width of the context window (default 2).
	WindowSize int
	// CharNGrams enables character 2- and 3-gram features.
	CharNGrams bool
}

// NewExtractor returns the configuration used for the experiments: window
// of 2, char n-grams on.
func NewExtractor(classer WordClasser) *Extractor {
	return &Extractor{Classer: classer, WindowSize: 2, CharNGrams: true}
}

// Position computes the feature instances for token index i of words.
// The returned strings are unique per instance kind (prefixed) and stable
// across calls.
func (e *Extractor) Position(words []string, i int) []string {
	return e.AppendPosition(make([]string, 0, 48), words, i)
}

// AppendPosition appends the feature instances for token index i of words
// to dst and returns the extended slice: Visitor.Position's features as
// strings, in the same order. Callers that extract a whole sentence, or
// only need to look the features up, should use a Visitor directly.
func (e *Extractor) AppendPosition(dst []string, words []string, i int) []string {
	var v Visitor
	v.Reset(e, words)
	v.Position(i, func(f []byte) { dst = append(dst, string(f)) })
	return dst
}

// Sentence computes Position for every index. One Visitor serves the
// whole sentence, so each word is analysed once, not once per window.
func (e *Extractor) Sentence(words []string) [][]string {
	out := make([][]string, len(words))
	var v Visitor
	v.Reset(e, words)
	for i := range words {
		feats := make([]string, 0, 48)
		v.Position(i, func(f []byte) { feats = append(feats, string(f)) })
		out[i] = feats
	}
	return out
}

// Visitor extracts the feature instances of one sentence as bytes. It is
// the one implementation of the feature templates: Position,
// AppendPosition and Sentence convert its output to strings, and the CRF
// compiler and the graph builder intern its bytes directly
// (Alphabet.LookupBytes).
//
// Each word is analysed once per sentence, on first use: its lower-case
// form, runes, lemma, brief shape, orthographic predicates and classer
// features. A word appears in up to 2·WindowSize+1 positions' features;
// the analysis is not repeated for each. Every feature is written into
// one reused byte buffer, so a position costs no allocation per feature.
//
// The zero value is ready for Reset. A Visitor is not safe for concurrent
// use; reuse one across sentences (Reset keeps its buffers).
type Visitor struct {
	e      *Extractor
	window int
	words  []string
	info   []wordInfo
	runes  []rune // runes of every analysed word's lower-case form
	brief  []byte // brief shape of every analysed word
	buf    []byte // the feature being emitted
}

// wordInfo is the per-sentence analysis of one word.
type wordInfo struct {
	ready        bool
	ortho        uint16 // orthoFeatures bits that hold
	lower, lemma string
	r0, r1       int32 // Visitor.runes[r0:r1] is []rune(lower)
	b0, b1       int32 // Visitor.brief[b0:b1] is BriefShape(word)
	classes      []string
}

// The orthographic predicates, in emission order: bit k of wordInfo.ortho
// set means orthoFeatures[k] holds. orthoPunct also emits "punct=<word>".
const (
	orthoAllCaps = iota
	orthoMixedCase
	orthoAlphanumeric
	orthoNumber
	orthoHasDigit
	orthoPunct
	orthoGreek
	orthoSingleUpper
	orthoRoman
)

var orthoFeatures = [...]string{"ALLCAPS", "MIXEDCASE", "ALPHANUMERIC", "NUMBER", "HASDIGIT", "PUNCT", "GREEK", "SINGLEUPPER", "ROMAN"}

// Reset binds the visitor to an extractor and a sentence, discarding the
// analysis of the previous sentence but keeping its buffers.
func (v *Visitor) Reset(e *Extractor, words []string) {
	v.e = e
	v.window = e.WindowWidth()
	v.words = words
	if cap(v.info) < len(words) {
		v.info = make([]wordInfo, len(words))
	} else {
		v.info = v.info[:len(words)]
		clear(v.info)
	}
	v.runes = v.runes[:0]
	v.brief = v.brief[:0]
}

// Position calls fn once for each feature instance of token index i, in a
// fixed order: the word block of token i (Word); for each window offset d
// from −WindowWidth to +WindowWidth but 0, the window block of token i+d
// (Window) or, past either end of the sentence, the boundary feature
// (Boundary); the bigrams (Bigrams); and, with a Classer, the classes of
// token i and of its neighbours (Classes at offsets 0, −1 and +1).
// f aliases the visitor's buffer: it is valid only until fn returns, and
// fn must not call back into v.
//
// Every group but the bigrams depends on one word alone (and the offset
// it is seen at), which is what lets a caller cache a word's groups.
func (v *Visitor) Position(i int, fn func(f []byte)) {
	n := len(v.words)
	v.Word(i, fn)
	for d := -v.window; d <= v.window; d++ {
		if d == 0 {
			continue
		}
		if j := i + d; j < 0 || j >= n {
			v.Boundary(d, fn)
		} else {
			v.Window(j, d, fn)
		}
	}
	v.Bigrams(i, fn)
	if v.e.Classer != nil {
		v.Classes(i, 0, fn)
		if i > 0 {
			v.Classes(i-1, -1, fn)
		}
		if i+1 < n {
			v.Classes(i+1, +1, fn)
		}
	}
}

// Word calls fn for the features of token j that depend on its word
// alone: word, lemma, shape and brief shape; prefixes and suffixes;
// orthographic predicates (and "punct=" for a punctuation mark);
// character n-grams.
func (v *Visitor) Word(j int, fn func(f []byte)) {
	word := v.words[j]
	w := v.word(j)
	b := v.buf

	b = append(append(b[:0], "w="...), w.lower...)
	fn(b)
	b = append(append(b[:0], "lemma="...), w.lemma...)
	fn(b)
	b = tokenize.AppendShape(append(b[:0], "shape="...), word)
	fn(b)
	b = append(append(b[:0], "brief="...), v.brief[w.b0:w.b1]...)
	fn(b)

	// Prefixes and suffixes (2..4 characters).
	r := v.runes[w.r0:w.r1]
	for n := 2; n <= 4 && n <= len(r); n++ {
		b = appendRunes(append(b[:0], 'p', 'r', 'e', byte('0'+n), '='), r[:n])
		fn(b)
		b = appendRunes(append(b[:0], 's', 'u', 'f', byte('0'+n), '='), r[len(r)-n:])
		fn(b)
	}

	// Orthographic predicates.
	for k, name := range orthoFeatures {
		if w.ortho&(1<<k) == 0 {
			continue
		}
		b = append(b[:0], name...)
		fn(b)
		if k == orthoPunct {
			b = append(append(b[:0], "punct="...), word...)
			fn(b)
		}
	}

	// Character n-grams (2 and 3) over the lowercased word.
	if v.e.CharNGrams {
		for n := 2; n <= 3; n++ {
			for k := 0; k+n <= len(r); k++ {
				b = appendRunes(append(b[:0], 'c', 'g', byte('0'+n), '='), r[k:k+n])
				fn(b)
			}
		}
	}
	v.buf = b[:0]
}

// Window calls fn for the features token j contributes to the position
// at offset −d from it, d being j's window offset there: its word
// ("w{d}="), lemma ("lem{d}=") and brief shape ("shape{d}="), with d
// rendered as "%+d".
func (v *Visitor) Window(j, d int, fn func(f []byte)) {
	w := v.word(j)
	b := append(append(appendOffset(append(v.buf[:0], 'w'), d), '='), w.lower...)
	fn(b)
	b = append(append(appendOffset(append(b[:0], "lem"...), d), '='), w.lemma...)
	fn(b)
	b = append(append(appendOffset(append(b[:0], "shape"...), d), '='), v.brief[w.b0:w.b1]...)
	fn(b)
	v.buf = b[:0]
}

// Boundary calls fn for the window feature at offset d of a position
// whose window runs past the sentence: "w{d}=<s>" before the start (d <
// 0), "w{d}=</s>" after the end (d > 0).
func (v *Visitor) Boundary(d int, fn func(f []byte)) {
	b := append(appendOffset(append(v.buf[:0], 'w'), d), '=')
	if d < 0 {
		b = append(b, "<s>"...)
	} else {
		b = append(b, "</s>"...)
	}
	fn(b)
	v.buf = b[:0]
}

// Bigrams calls fn for the adjacent-word bigrams of token i: with the
// previous word ("bg-1=") and with the next ("bg+1="), where they exist.
func (v *Visitor) Bigrams(i int, fn func(f []byte)) {
	b := v.buf
	if i > 0 {
		b = AppendBigram(b[:0], -1, v.word(i-1).lower, v.word(i).lower)
		fn(b)
	}
	if i+1 < len(v.words) {
		b = AppendBigram(b[:0], +1, v.word(i).lower, v.word(i+1).lower)
		fn(b)
	}
	v.buf = b[:0]
}

// AppendBigram appends the bigram feature of a position and its
// neighbour at offset d (−1 or +1) to b: "bg{d}=" and the lower-case
// words in sentence order, joined by '_'. It is the bigram template of
// Bigrams, for callers that hold the lower-case words without a Visitor.
func AppendBigram(b []byte, d int, left, right string) []byte {
	b = append(appendOffset(append(b, 'b', 'g'), d), '=')
	return append(append(append(b, left...), '_'), right...)
}

// Classes calls fn for the distributional classes of token j as seen from
// the position at offset −d from it: the classer's features unchanged for
// d = 0, suffixed "@-1" or "@+1" for the previous or next word. It emits
// nothing without a Classer.
func (v *Visitor) Classes(j, d int, fn func(f []byte)) {
	b := v.buf
	for _, c := range v.word(j).classes {
		b = append(b[:0], c...)
		if d != 0 {
			b = appendOffset(append(b, '@'), d)
		}
		fn(b)
	}
	v.buf = b[:0]
}

// Lower returns the lower-case form of token j, as the "w=" and bigram
// features spell it.
func (v *Visitor) Lower(j int) string { return v.word(j).lower }

// WindowWidth is the half-width of the context window Position uses:
// WindowSize, or 2 when it is unset.
func (e *Extractor) WindowWidth() int {
	if e.WindowSize == 0 {
		return 2
	}
	return e.WindowSize
}

// word returns the analysis of words[j], computing it on first use.
func (v *Visitor) word(j int) *wordInfo {
	w := &v.info[j]
	if w.ready {
		return w
	}
	word := v.words[j]
	w.ready = true
	w.lower = strings.ToLower(word)
	w.lemma = tokenize.LemmaLower(w.lower)
	w.r0 = int32(len(v.runes))
	for _, r := range w.lower {
		v.runes = append(v.runes, r)
	}
	w.r1 = int32(len(v.runes))
	w.b0 = int32(len(v.brief))
	v.brief = tokenize.AppendBriefShape(v.brief, word)
	w.b1 = int32(len(v.brief))
	w.ortho = orthoPredicates(word, w.lower)
	if v.e.Classer != nil {
		w.classes = v.e.Classer.Classes(word)
	}
	return w
}

// appendRunes appends the UTF-8 encoding of r, as string(r) would.
func appendRunes(b []byte, r []rune) []byte {
	for _, c := range r {
		b = utf8.AppendRune(b, c)
	}
	return b
}

// appendOffset appends a relative window offset as fmt's "%+d" renders it.
func appendOffset(b []byte, d int) []byte {
	if d >= 0 {
		b = append(b, '+')
	}
	return strconv.AppendInt(b, int64(d), 10)
}

// orthoPredicates returns the orthoFeatures bits that hold for w, whose
// lower-case form is lower.
func orthoPredicates(w, lower string) uint16 {
	var (
		hasUpper, hasLower, hasDigit, hasPunct bool
		allUpper, allDigit                     = true, true
	)
	for _, r := range w {
		switch {
		case unicode.IsUpper(r):
			hasUpper = true
			allDigit = false
		case unicode.IsLower(r):
			hasLower = true
			allUpper, allDigit = false, false
		case unicode.IsDigit(r):
			hasDigit = true
			allUpper = false
		default:
			hasPunct = true
			allUpper, allDigit = false, false
		}
	}
	var m uint16
	set := func(k int, ok bool) {
		if ok {
			m |= 1 << k
		}
	}
	set(orthoAllCaps, hasUpper && allUpper && len(w) > 1)
	set(orthoMixedCase, hasUpper && hasLower)
	set(orthoAlphanumeric, hasUpper && hasDigit)
	set(orthoNumber, allDigit && len(w) > 0)
	set(orthoHasDigit, hasDigit && !allDigit)
	set(orthoPunct, hasPunct && len(w) == 1)
	set(orthoGreek, greekNames[lower])
	set(orthoSingleUpper, hasUpper && utf8.RuneCountInString(w) == 1)
	set(orthoRoman, romanNumeral(w))
	return m
}

var greekNames = map[string]bool{
	"alpha": true, "beta": true, "gamma": true, "delta": true,
	"epsilon": true, "zeta": true, "eta": true, "theta": true,
	"kappa": true, "lambda": true, "sigma": true, "omega": true,
}

func romanNumeral(w string) bool {
	if w == "" {
		return false
	}
	for _, r := range w {
		switch r {
		case 'I', 'V', 'X', 'L', 'C':
		default:
			return false
		}
	}
	return len(w) <= 4
}

// Alphabet interns feature strings to dense integer identifiers. It grows
// while unfrozen; after Freeze, unknown strings map to -1. Alphabet is not
// safe for concurrent mutation; freeze it before sharing across goroutines.
type Alphabet struct {
	index  map[string]int
	names  []string
	frozen bool
}

// NewAlphabet returns an empty, unfrozen alphabet.
func NewAlphabet() *Alphabet {
	return &Alphabet{index: make(map[string]int)}
}

// Lookup returns the id of s, adding it if the alphabet is unfrozen.
// It returns -1 for unknown strings on a frozen alphabet.
func (a *Alphabet) Lookup(s string) int {
	if id, ok := a.index[s]; ok {
		return id
	}
	if a.frozen {
		return -1
	}
	return a.insert(s)
}

// LookupBytes is Lookup for a feature held in a byte slice. A hit does not
// allocate (the map index converts b without copying); only inserting a
// new feature into an unfrozen alphabet copies b into a string.
func (a *Alphabet) LookupBytes(b []byte) int {
	if id, ok := a.index[string(b)]; ok {
		return id
	}
	if a.frozen {
		return -1
	}
	return a.insert(string(b))
}

// insert adds s, which must be absent, and returns its new id.
func (a *Alphabet) insert(s string) int {
	id := len(a.names)
	a.index[s] = id
	a.names = append(a.names, s)
	return id
}

// CountPrefix returns the number of interned strings that begin with
// prefix.
func (a *Alphabet) CountPrefix(prefix string) int {
	n := 0
	for _, s := range a.names {
		if strings.HasPrefix(s, prefix) {
			n++
		}
	}
	return n
}

// Name returns the string for id. It panics on out-of-range ids.
func (a *Alphabet) Name(id int) string { return a.names[id] }

// Len returns the number of interned strings.
func (a *Alphabet) Len() int { return len(a.names) }

// Freeze stops the alphabet from growing; subsequent unknown lookups
// return -1. Freezing an already-frozen alphabet is a no-op.
func (a *Alphabet) Freeze() { a.frozen = true }

// Frozen reports whether the alphabet is frozen.
func (a *Alphabet) Frozen() bool { return a.frozen }

// Names returns the interned strings in id order. The returned slice is a
// copy and safe to retain; it is the serialized form of the alphabet.
func (a *Alphabet) Names() []string {
	return append([]string(nil), a.names...)
}

// NewAlphabetFromNames reconstructs a frozen alphabet from a Names()
// snapshot, preserving ids.
func NewAlphabetFromNames(names []string) *Alphabet {
	a := NewAlphabet()
	for _, n := range names {
		a.Lookup(n)
	}
	a.Freeze()
	return a
}
