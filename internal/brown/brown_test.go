package brown

import (
	"math/rand"
	"strings"
	"testing"
)

// twoTopicCorpus builds sentences where words of each topic only co-occur
// with their own topic, so Brown clustering should separate them cleanly.
func twoTopicCorpus(rng *rand.Rand, n int) [][]string {
	topicA := []string{"gene", "mutation", "expression", "variant", "allele"}
	topicB := []string{"january", "february", "march", "april", "may"}
	var out [][]string
	for i := 0; i < n; i++ {
		pool := topicA
		if i%2 == 1 {
			pool = topicB
		}
		ln := 4 + rng.Intn(5)
		s := make([]string, ln)
		for j := range s {
			s[j] = pool[rng.Intn(len(pool))]
		}
		out = append(out, s)
	}
	return out
}

func TestClusterSeparatesTopics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	corpus := twoTopicCorpus(rng, 400)
	c, err := Cluster(corpus, Config{NumClusters: 4, MaxWords: 100, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Words within a topic should share longer path prefixes with each
	// other than with words of the other topic.
	topicA := []string{"gene", "mutation", "expression", "variant", "allele"}
	topicB := []string{"january", "february", "march", "april", "may"}
	avgIntra, avgInter, nIntra, nInter := 0, 0, 0, 0
	lcp := func(a, b string) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}
	for _, a := range topicA {
		for _, b := range topicA {
			if a != b {
				avgIntra += lcp(c.Path(a), c.Path(b))
				nIntra++
			}
		}
		for _, b := range topicB {
			avgInter += lcp(c.Path(a), c.Path(b))
			nInter++
		}
	}
	if nIntra == 0 || nInter == 0 {
		t.Fatal("degenerate test")
	}
	intra := float64(avgIntra) / float64(nIntra)
	inter := float64(avgInter) / float64(nInter)
	if intra <= inter {
		t.Errorf("intra-topic LCP %.2f not greater than inter-topic %.2f", intra, inter)
	}
}

func TestAllWordsGetPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	corpus := twoTopicCorpus(rng, 100)
	c, err := Cluster(corpus, Config{NumClusters: 3, MaxWords: 100, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 10 {
		t.Errorf("clustered %d words, want 10", c.Len())
	}
	for _, w := range []string{"gene", "january"} {
		if c.Path(w) == "" {
			t.Errorf("no path for %q", w)
		}
	}
	if c.Path("nonexistent") != "" {
		t.Error("path for unknown word")
	}
}

func TestPathsAreUniquePerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := twoTopicCorpus(rng, 200)
	c, err := Cluster(corpus, Config{NumClusters: 5, MaxWords: 100, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string)
	for _, w := range []string{"gene", "mutation", "expression", "variant", "allele", "january", "february", "march", "april", "may"} {
		p := c.Path(w)
		if p == "" {
			t.Fatalf("no path for %q", w)
		}
		for _, r := range p {
			if r != '0' && r != '1' {
				t.Fatalf("path %q for %q contains non-bit", p, w)
			}
		}
		if prev, dup := seen[p]; dup {
			t.Errorf("words %q and %q share full path %q", prev, w, p)
		}
		seen[p] = w
	}
}

func TestMinCountFilters(t *testing.T) {
	corpus := [][]string{
		{"common", "common", "common", "rare"},
		{"common", "common"},
	}
	c, err := Cluster(corpus, Config{NumClusters: 2, MaxWords: 100, MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Path("rare") != "" {
		t.Error("rare word should be filtered")
	}
	if c.Path("common") == "" {
		t.Error("common word should be clustered")
	}
}

func TestEmptyInputErrors(t *testing.T) {
	if _, err := Cluster(nil, Config{}); err == nil {
		t.Error("want error for empty corpus")
	}
	if _, err := Cluster([][]string{{"once"}}, Config{MinCount: 5}); err == nil {
		t.Error("want error when everything is filtered")
	}
}

func TestSingleWordVocabulary(t *testing.T) {
	c, err := Cluster([][]string{{"only", "only", "only"}}, Config{MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Path("only") == "" {
		t.Error("single word got no path")
	}
}

func TestClasses(t *testing.T) {
	c := &Clustering{paths: map[string]string{
		"short": "011",
		"long":  "0110101101010101010101",
	}}
	got := c.Classes("short")
	if len(got) != 1 || got[0] != "brown4=011" {
		t.Errorf("Classes(short) = %v", got)
	}
	got = c.Classes("long")
	want := []string{"brown4=0110", "brown6=011010", "brown10=0110101101", "brown20=01101011010101010101"}
	if len(got) != len(want) {
		t.Fatalf("Classes(long) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Classes(long)[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if c.Classes("missing") != nil {
		t.Error("Classes of unknown word should be nil")
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	corpus := twoTopicCorpus(rng, 150)
	a, err := Cluster(corpus, Config{NumClusters: 4, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(corpus, Config{NumClusters: 4, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range strings.Fields("gene mutation january may") {
		if a.Path(w) != b.Path(w) {
			t.Errorf("nondeterministic path for %q: %q vs %q", w, a.Path(w), b.Path(w))
		}
	}
}

func BenchmarkCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	corpus := twoTopicCorpus(rng, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(corpus, Config{NumClusters: 8, MinCount: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
