package features

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/tokenize"
)

// This file keeps the string-concatenating feature extractor that the
// byte Visitor replaced, verbatim, as the reference the equivalence tests
// compare against: one string per feature, the word analysis redone for
// every window a word appears in. referenceShape and referenceBriefShape
// are the string-building word shapes the extractor used before the shape
// functions learned to append to a byte slice.

var referenceOffsetLabels = [...]string{"-8", "-7", "-6", "-5", "-4", "-3", "-2", "-1", "+0", "+1", "+2", "+3", "+4", "+5", "+6", "+7", "+8"}

func referenceOffsetLabel(d int) string {
	if d >= -8 && d <= 8 {
		return referenceOffsetLabels[d+8]
	}
	return fmt.Sprintf("%+d", d)
}

// referenceAppendPosition is the former Extractor.AppendPosition.
func referenceAppendPosition(e *Extractor, dst []string, words []string, i int) []string {
	w := words[i]
	window := e.WindowSize
	if window == 0 {
		window = 2
	}
	feats := dst
	add := func(f string) { feats = append(feats, f) }

	lower := strings.ToLower(w)
	add("w=" + lower)
	add("lemma=" + tokenize.Lemma(w))
	add("shape=" + referenceShape(w))
	add("brief=" + referenceBriefShape(w))

	// Prefixes and suffixes (2..4 characters).
	r := []rune(lower)
	for n := 2; n <= 4 && n <= len(r); n++ {
		add("pre" + strconv.Itoa(n) + "=" + string(r[:n]))
		add("suf" + strconv.Itoa(n) + "=" + string(r[len(r)-n:]))
	}

	// Orthographic predicates.
	feats = referenceOrthoPredicates(feats, w)

	// Character n-grams (2 and 3) over the lowercased word.
	if e.CharNGrams {
		for n := 2; n <= 3; n++ {
			for j := 0; j+n <= len(r); j++ {
				add("cg" + strconv.Itoa(n) + "=" + string(r[j:j+n]))
			}
		}
	}

	// Window features: surrounding words and lemmas with relative offsets.
	for d := -window; d <= window; d++ {
		if d == 0 {
			continue
		}
		j := i + d
		var wj string
		if j < 0 {
			wj = "<s>"
		} else if j >= len(words) {
			wj = "</s>"
		} else {
			wj = strings.ToLower(words[j])
		}
		off := referenceOffsetLabel(d)
		add("w" + off + "=" + wj)
		if j >= 0 && j < len(words) {
			add("lem" + off + "=" + tokenize.Lemma(words[j]))
			add("shape" + off + "=" + referenceBriefShape(words[j]))
		}
	}

	// Adjacent-word bigrams.
	if i > 0 {
		add("bg-1=" + strings.ToLower(words[i-1]) + "_" + lower)
	}
	if i+1 < len(words) {
		add("bg+1=" + lower + "_" + strings.ToLower(words[i+1]))
	}

	// Distributional word classes for the token and its neighbours.
	if e.Classer != nil {
		for _, c := range e.Classer.Classes(w) {
			add(c)
		}
		if i > 0 {
			for _, c := range e.Classer.Classes(words[i-1]) {
				add(c + "@-1")
			}
		}
		if i+1 < len(words) {
			for _, c := range e.Classer.Classes(words[i+1]) {
				add(c + "@+1")
			}
		}
	}
	return feats
}

// referenceOrthoPredicates is the former appendOrthoPredicates.
func referenceOrthoPredicates(out []string, w string) []string {
	var (
		hasUpper, hasLower, hasDigit, hasPunct, hasGreek bool
		allUpper, allDigit                               = true, true
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
	if isGreekName(w) {
		hasGreek = true
	}
	if hasUpper && allUpper && len(w) > 1 {
		out = append(out, "ALLCAPS")
	}
	if hasUpper && hasLower {
		out = append(out, "MIXEDCASE")
	}
	if hasUpper && hasDigit {
		out = append(out, "ALPHANUMERIC")
	}
	if allDigit && len(w) > 0 {
		out = append(out, "NUMBER")
	}
	if hasDigit && !allDigit {
		out = append(out, "HASDIGIT")
	}
	if hasPunct && len(w) == 1 {
		out = append(out, "PUNCT", "punct="+w)
	}
	if hasGreek {
		out = append(out, "GREEK")
	}
	if len([]rune(w)) == 1 && hasUpper {
		out = append(out, "SINGLEUPPER")
	}
	if romanNumeral(w) {
		out = append(out, "ROMAN")
	}
	return out
}

func isGreekName(w string) bool { return greekNames[strings.ToLower(w)] }

// referenceShape is the former tokenize.Shape.
func referenceShape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case unicode.IsUpper(r):
			b.WriteByte('A')
		case unicode.IsLower(r):
			b.WriteByte('a')
		case unicode.IsDigit(r):
			b.WriteByte('0')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// referenceBriefShape is the former tokenize.BriefShape.
func referenceBriefShape(s string) string {
	full := referenceShape(s)
	var b strings.Builder
	var prev rune = -1
	for _, r := range full {
		if r != prev {
			b.WriteRune(r)
			prev = r
		}
	}
	return b.String()
}
