package features

import (
	"strings"
	"testing"
	"testing/quick"
)

func contains(feats []string, f string) bool {
	for _, x := range feats {
		if x == f {
			return true
		}
	}
	return false
}

func TestPositionBasics(t *testing.T) {
	e := NewExtractor(nil)
	words := []string{"the", "LNK", "gene"}
	feats := e.Position(words, 1)
	for _, want := range []string{
		"w=lnk", "lemma=lnk", "shape=AAA", "brief=A",
		"pre2=ln", "suf2=nk", "pre3=lnk", "suf3=lnk",
		"ALLCAPS",
		"w-1=the", "w+1=gene",
		"bg-1=the_lnk", "bg+1=lnk_gene",
	} {
		if !contains(feats, want) {
			t.Errorf("missing feature %q in %v", want, feats)
		}
	}
}

func TestWindowBoundaries(t *testing.T) {
	e := NewExtractor(nil)
	feats := e.Position([]string{"only"}, 0)
	if !contains(feats, "w-1=<s>") || !contains(feats, "w+1=</s>") {
		t.Errorf("boundary window features missing: %v", feats)
	}
	if !contains(feats, "w-2=<s>") || !contains(feats, "w+2=</s>") {
		t.Errorf("boundary window features missing at distance 2: %v", feats)
	}
}

func TestOrthoPredicates(t *testing.T) {
	cases := []struct {
		word string
		want []string
		not  []string
	}{
		{"LNK", []string{"ALLCAPS"}, []string{"NUMBER", "MIXEDCASE"}},
		{"p53", []string{"HASDIGIT"}, []string{"NUMBER", "ALLCAPS"}},
		{"42", []string{"NUMBER"}, []string{"HASDIGIT"}},
		{"Abl", []string{"MIXEDCASE"}, []string{"ALLCAPS"}},
		{"SH2", []string{"ALPHANUMERIC", "HASDIGIT"}, nil},
		{"-", []string{"PUNCT", "punct=-"}, nil},
		{"alpha", []string{"GREEK"}, nil},
		{"II", []string{"ROMAN", "ALLCAPS"}, nil},
		{"X", []string{"SINGLEUPPER", "ROMAN"}, []string{"ALLCAPS"}},
	}
	for _, c := range cases {
		got := NewExtractor(nil).Position([]string{c.word}, 0)
		for _, w := range c.want {
			if !contains(got, w) {
				t.Errorf("%q: missing %q in %v", c.word, w, got)
			}
		}
		for _, n := range c.not {
			if contains(got, n) {
				t.Errorf("%q: unwanted %q in %v", c.word, n, got)
			}
		}
	}
}

func TestCharNGrams(t *testing.T) {
	e := &Extractor{CharNGrams: true, WindowSize: 1}
	feats := e.Position([]string{"abc"}, 0)
	for _, want := range []string{"cg2=ab", "cg2=bc", "cg3=abc"} {
		if !contains(feats, want) {
			t.Errorf("missing %q", want)
		}
	}
	e2 := &Extractor{CharNGrams: false, WindowSize: 1}
	feats2 := e2.Position([]string{"abc"}, 0)
	if contains(feats2, "cg2=ab") {
		t.Error("char n-grams present despite being disabled")
	}
}

type fakeClasser struct{}

func (fakeClasser) Classes(word string) []string {
	if word == "LNK" {
		return []string{"brown4=0110", "w2v=17"}
	}
	return nil
}

func TestWordClasser(t *testing.T) {
	e := NewExtractor(fakeClasser{})
	words := []string{"the", "LNK", "gene"}
	feats := e.Position(words, 1)
	if !contains(feats, "brown4=0110") || !contains(feats, "w2v=17") {
		t.Errorf("classer features missing: %v", feats)
	}
	// Neighbour classes carry positional suffixes.
	feats0 := e.Position(words, 0)
	if !contains(feats0, "brown4=0110@+1") {
		t.Errorf("neighbour classer feature missing: %v", feats0)
	}
	feats2 := e.Position(words, 2)
	if !contains(feats2, "w2v=17@-1") {
		t.Errorf("neighbour classer feature missing: %v", feats2)
	}
}

func TestLexiconClasser(t *testing.T) {
	l := NewLexiconClasser([]string{"FLT3", "lymphocyte adaptor protein"})
	cases := []struct {
		word string
		want []string
	}{
		{"FLT3", []string{"LEX", "LEXFULL"}},
		{"flt3", []string{"LEX", "LEXFULL"}},
		{"adaptor", []string{"LEX"}},
		{"Lymphocyte", []string{"LEX"}},
		{"unrelated", nil},
	}
	for _, c := range cases {
		got := l.Classes(c.word)
		if len(got) != len(c.want) {
			t.Errorf("Classes(%q) = %v, want %v", c.word, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Classes(%q)[%d] = %q, want %q", c.word, i, got[i], c.want[i])
			}
		}
	}
}

func TestMultiClasser(t *testing.T) {
	a := NewLexiconClasser([]string{"FLT3"})
	m := MultiClasser{a, fakeClasser{}}
	got := m.Classes("LNK")
	if len(got) != 2 || got[0] != "brown4=0110" {
		t.Errorf("MultiClasser.Classes = %v", got)
	}
	if m.Classes("nothing") != nil {
		t.Error("want nil for unknown word")
	}
	got = m.Classes("FLT3")
	if len(got) != 2 || got[0] != "LEX" {
		t.Errorf("MultiClasser.Classes(FLT3) = %v", got)
	}
}

func TestSentence(t *testing.T) {
	e := NewExtractor(nil)
	words := []string{"a", "b", "c"}
	all := e.Sentence(words)
	if len(all) != 3 {
		t.Fatalf("got %d positions", len(all))
	}
	for i := range all {
		if len(all[i]) == 0 {
			t.Errorf("position %d has no features", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	e := NewExtractor(nil)
	words := strings.Fields("mutation of the FLT3 gene in AML patients")
	a := e.Position(words, 3)
	b := e.Position(words, 3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic feature count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic feature order at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestAlphabet(t *testing.T) {
	a := NewAlphabet()
	x := a.Lookup("x")
	yb := []byte("y")
	y := a.LookupBytes(yb)
	yb[0] = 'q' // the alphabet must own a copy of an inserted feature
	if x == y {
		t.Error("distinct strings share an id")
	}
	if a.Lookup("x") != x {
		t.Error("lookup not stable")
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d", a.Len())
	}
	if a.Name(x) != "x" || a.Name(y) != "y" {
		t.Error("Name mismatch")
	}
	a.Freeze()
	if !a.Frozen() {
		t.Error("not frozen")
	}
	if got := a.Lookup("z"); got != -1 {
		t.Errorf("frozen lookup of unknown = %d, want -1", got)
	}
	if got := a.LookupBytes([]byte("z")); got != -1 {
		t.Errorf("frozen LookupBytes of unknown = %d, want -1", got)
	}
	if a.LookupBytes([]byte("y")) != y {
		t.Error("frozen LookupBytes of known string broken")
	}
	if a.Lookup("x") != x {
		t.Error("frozen lookup of known string broken")
	}
	if a.Len() != 2 {
		t.Error("frozen alphabet grew")
	}
}

func TestAlphabetPropertyDenseIDs(t *testing.T) {
	// IDs are assigned densely 0..n-1 in first-seen order.
	f := func(keys []string) bool {
		a := NewAlphabet()
		for _, k := range keys {
			id := a.Lookup(k)
			if id < 0 || id >= a.Len() {
				return false
			}
			if a.Name(id) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPosition(b *testing.B) {
	e := NewExtractor(nil)
	words := strings.Fields("Recently the mutation of lymphocyte adaptor protein LNK was detected in MPN")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Position(words, 5)
	}
}

func TestAppendPositionMatchesPosition(t *testing.T) {
	e := NewExtractor(fakeClasser{})
	words := strings.Fields("Recently the mutation of LNK was detected in MPN patients")
	for i := range words {
		want := e.Position(words, i)
		// Appending onto a non-empty buffer must leave the prefix intact
		// and append exactly Position's features, in order.
		dst := []string{"sentinel-a", "sentinel-b"}
		got := e.AppendPosition(dst, words, i)
		if got[0] != "sentinel-a" || got[1] != "sentinel-b" {
			t.Fatalf("position %d: prefix clobbered: %v", i, got[:2])
		}
		tail := got[2:]
		if len(tail) != len(want) {
			t.Fatalf("position %d: appended %d features, Position yields %d", i, len(tail), len(want))
		}
		for j := range want {
			if tail[j] != want[j] {
				t.Fatalf("position %d feature %d: %q vs Position's %q", i, j, tail[j], want[j])
			}
		}
		// Reusing the same buffer (the compile loop's pattern) is stable.
		reused := e.AppendPosition(got[:0], words, i)
		if len(reused) != len(want) {
			t.Fatalf("position %d: reused buffer yields %d features, want %d", i, len(reused), len(want))
		}
		for j := range want {
			if reused[j] != want[j] {
				t.Fatalf("position %d reused feature %d: %q vs %q", i, j, reused[j], want[j])
			}
		}
	}
}
