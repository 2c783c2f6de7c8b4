// Package tokenize provides a biomedical text tokenizer in the style of
// BANNER: it performs fine-grained splitting at transitions between letter,
// digit, and punctuation classes, so that gene names such as "SH2B3" or
// "tumor-1" are broken into units that a sequence tagger can label with BIO
// tags at mention boundaries.
//
// Every token records its byte offsets in the original sentence and its
// offsets in the "space-free" coordinate system used by the BioCreative II
// gene mention evaluation, where space characters are ignored when counting
// character positions.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single unit of a tokenized sentence.
type Token struct {
	// Text is the surface form of the token.
	Text string
	// Start and End are byte offsets of the token within the original
	// sentence, with End exclusive.
	Start, End int
	// SFStart and SFEnd are the token's offsets in the space-free
	// coordinate system of the BioCreative II evaluation: positions are
	// counted over non-space characters only, and SFEnd is inclusive,
	// matching the corpus annotation format.
	SFStart, SFEnd int
}

// class partitions runes into the categories at whose boundaries the
// tokenizer splits.
type class int

const (
	classSpace class = iota
	classLetter
	classDigit
	classPunct
)

func classify(r rune) class {
	switch {
	case unicode.IsSpace(r):
		return classSpace
	case unicode.IsLetter(r):
		return classLetter
	case unicode.IsDigit(r):
		return classDigit
	default:
		return classPunct
	}
}

// Sentence tokenizes a single sentence. Splitting happens at whitespace and
// at every transition between letters, digits and punctuation; each
// punctuation rune is its own token. This mirrors BANNER's fine-grained
// tokenization, which maximizes the tagger's freedom to place mention
// boundaries inside hyphenated or alphanumeric gene names.
func Sentence(s string) []Token {
	var tokens []Token
	var start int
	var cur class = classSpace
	sf := 0 // running count of non-space characters before byte i

	flush := func(end int) {
		if cur == classSpace || start >= end {
			return
		}
		text := s[start:end]
		n := len([]rune(text))
		tokens = append(tokens, Token{
			Text:    text,
			Start:   start,
			End:     end,
			SFStart: sf - n,
			SFEnd:   sf - 1,
		})
	}

	for i, r := range s {
		c := classify(r)
		switch {
		case c == classSpace:
			flush(i)
			cur = classSpace
		case cur == classSpace:
			start = i
			cur = c
		case c != cur || c == classPunct:
			// Transition between classes, or consecutive punctuation
			// runes: punctuation never agglomerates.
			flush(i)
			start = i
			cur = c
		}
		if c != classSpace {
			sf++
		}
	}
	flush(len(s))
	return tokens
}

// Words returns just the surface forms of the tokens of s.
func Words(s string) []string {
	toks := Sentence(s)
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// Detokenize joins tokens with single spaces. It is the inverse of Sentence
// only up to whitespace, which is sufficient for building 3-gram keys.
func Detokenize(tokens []Token) string {
	var b strings.Builder
	for i, t := range tokens {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// Shape maps a token to its word shape, the canonical orthographic pattern
// used as a CRF feature: uppercase letters become 'A', lowercase 'a',
// digits '0', and everything else is preserved. Runs are not collapsed.
func Shape(s string) string { return string(AppendShape(nil, s)) }

// AppendShape appends Shape(s) to dst and returns the extended slice.
func AppendShape(dst []byte, s string) []byte {
	for _, r := range s {
		dst = utf8.AppendRune(dst, shapeClass(r))
	}
	return dst
}

// BriefShape is Shape with consecutive identical classes collapsed to a
// single character ("Abeta42" -> "Aa0").
func BriefShape(s string) string { return string(AppendBriefShape(nil, s)) }

// AppendBriefShape appends BriefShape(s) to dst and returns the extended
// slice.
func AppendBriefShape(dst []byte, s string) []byte {
	var prev rune = -1
	for _, r := range s {
		if c := shapeClass(r); c != prev {
			dst = utf8.AppendRune(dst, c)
			prev = c
		}
	}
	return dst
}

// shapeClass is the Shape character of one rune. An invalid UTF-8 byte
// arrives as utf8.RuneError and is kept, so it renders as U+FFFD.
func shapeClass(r rune) rune {
	switch {
	case unicode.IsUpper(r):
		return 'A'
	case unicode.IsLower(r):
		return 'a'
	case unicode.IsDigit(r):
		return '0'
	}
	return r
}

// Lemma returns a crude lemmatized form of a word: lowercased, with common
// English inflectional suffixes stripped. It approximates the lemmatizer
// BANNER uses for its lexical window features; graph construction in the
// paper's "Lexical-features" mode is built on lemmas of a 5-word window.
func Lemma(s string) string { return LemmaLower(strings.ToLower(s)) }

// LemmaLower is Lemma for a word already lower-cased by strings.ToLower:
// Lemma(s) == LemmaLower(strings.ToLower(s)). Callers that hold the
// lower-case form use it to skip a second case mapping.
func LemmaLower(w string) string {
	switch {
	case len(w) > 5 && strings.HasSuffix(w, "ies"):
		return w[:len(w)-3] + "y"
	case len(w) > 4 && strings.HasSuffix(w, "sses"):
		return w[:len(w)-2]
	case len(w) > 4 && strings.HasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		return w[:len(w)-3]
	case len(w) > 4 && strings.HasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		return w[:len(w)-2]
	case len(w) > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
		return w[:len(w)-1]
	}
	return w
}

func hasVowel(s string) bool {
	return strings.ContainsAny(s, "aeiou")
}

// SplitSentences performs simple sentence boundary detection on a text
// block: boundaries are placed after '.', '!', or '?' followed by
// whitespace and an uppercase letter or digit. Common biomedical
// abbreviations ("Fig.", "et al.", "e.g.") do not end sentences.
func SplitSentences(text string) []string {
	var out []string
	runes := []rune(text)
	start := 0
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		if r != '.' && r != '!' && r != '?' {
			continue
		}
		// Look ahead: require whitespace then an upper/digit.
		j := i + 1
		for j < len(runes) && runes[j] == '.' {
			j++
		}
		if j >= len(runes) {
			break
		}
		if !unicode.IsSpace(runes[j]) {
			continue
		}
		k := j
		for k < len(runes) && unicode.IsSpace(runes[k]) {
			k++
		}
		if k >= len(runes) {
			break
		}
		if !unicode.IsUpper(runes[k]) && !unicode.IsDigit(runes[k]) {
			continue
		}
		if r == '.' && isAbbreviation(string(runes[start:i])) {
			continue
		}
		s := strings.TrimSpace(string(runes[start : i+1]))
		if s != "" {
			out = append(out, s)
		}
		start = k
		i = k - 1
	}
	if tail := strings.TrimSpace(string(runes[start:])); tail != "" {
		out = append(out, tail)
	}
	return out
}

var abbreviations = map[string]bool{
	"fig": true, "figs": true, "al": true, "e.g": true, "i.e": true,
	"vs": true, "etc": true, "dr": true, "no": true, "ref": true,
	"approx": true, "ca": true, "cf": true, "resp": true,
}

func isAbbreviation(prefix string) bool {
	i := strings.LastIndexFunc(prefix, unicode.IsSpace)
	last := strings.ToLower(prefix[i+1:])
	last = strings.TrimSuffix(last, ".")
	if abbreviations[last] {
		return true
	}
	// Single letters ("S. cerevisiae", initials) are abbreviations.
	return len([]rune(last)) == 1
}
