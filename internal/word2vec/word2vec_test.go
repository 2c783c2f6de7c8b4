package word2vec

import (
	"math"
	"math/rand"
	"testing"
)

// topicCorpus: words co-occur only within their topic, so embeddings of
// same-topic words should end up more similar.
func topicCorpus(rng *rand.Rand, n int) [][]string {
	topics := [][]string{
		{"gene", "mutation", "expression", "variant", "allele", "promoter"},
		{"january", "february", "march", "april", "may", "june"},
		{"red", "green", "blue", "yellow", "purple", "orange"},
	}
	var out [][]string
	for i := 0; i < n; i++ {
		pool := topics[i%len(topics)]
		ln := 5 + rng.Intn(6)
		s := make([]string, ln)
		for j := range s {
			s[j] = pool[rng.Intn(len(pool))]
		}
		out = append(out, s)
	}
	return out
}

func trainSmall(t *testing.T, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m, err := Train(topicCorpus(rng, 600), Config{
		Dim: 16, Epochs: 5, MinCount: 1, Seed: seed, Clusters: 3, Window: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainBasics(t *testing.T) {
	m := trainSmall(t, 1)
	if m.VocabSize() != 18 {
		t.Errorf("vocab size %d, want 18", m.VocabSize())
	}
	if m.Dim() != 16 {
		t.Errorf("dim %d", m.Dim())
	}
	if v := m.Vector("gene"); len(v) != 16 {
		t.Errorf("Vector length %d", len(v))
	}
	if m.Vector("unknown") != nil {
		t.Error("Vector for unknown word")
	}
}

func TestSameTopicMoreSimilar(t *testing.T) {
	m := trainSmall(t, 1)
	cos := func(a, b string) float64 {
		va, vb := m.Vector(a), m.Vector(b)
		return dot(va, vb) / math.Sqrt(dot(va, va)*dot(vb, vb))
	}
	intra := cos("gene", "mutation")
	inter := cos("gene", "january")
	if intra <= inter {
		t.Errorf("cos(gene,mutation)=%.3f not greater than cos(gene,january)=%.3f", intra, inter)
	}
}

func TestNeighbors(t *testing.T) {
	m := trainSmall(t, 1)
	ns := m.Neighbors("gene", 5)
	if len(ns) != 5 {
		t.Fatalf("got %d neighbors", len(ns))
	}
	// The nearest neighbours of "gene" should be dominated by its topic.
	topic := map[string]bool{"mutation": true, "expression": true, "variant": true, "allele": true, "promoter": true}
	inTopic := 0
	for _, n := range ns[:3] {
		if topic[n.Word] {
			inTopic++
		}
	}
	if inTopic < 2 {
		t.Errorf("top-3 neighbours of gene: %v (want mostly same topic)", ns[:3])
	}
	for i := 1; i < len(ns); i++ {
		if ns[i-1].Sim < ns[i].Sim {
			t.Error("neighbors not sorted")
		}
	}
	if m.Neighbors("unknown", 3) != nil {
		t.Error("neighbors of unknown word")
	}
}

func TestClassesClusterTopics(t *testing.T) {
	m := trainSmall(t, 1)
	c := m.Classes("gene")
	if len(c) != 1 {
		t.Fatalf("Classes = %v", c)
	}
	if m.Classes("unknown") != nil {
		t.Error("Classes for unknown word")
	}
	// Count how often same-topic pairs share a cluster vs cross-topic.
	topics := [][]string{
		{"gene", "mutation", "expression", "variant", "allele", "promoter"},
		{"january", "february", "march", "april", "may", "june"},
	}
	same, cross := 0, 0
	sameN, crossN := 0, 0
	for i, ta := range topics {
		for _, a := range ta {
			for j, tb := range topics {
				for _, b := range tb {
					if a == b {
						continue
					}
					match := 0
					if m.Classes(a)[0] == m.Classes(b)[0] {
						match = 1
					}
					if i == j {
						same += match
						sameN++
					} else {
						cross += match
						crossN++
					}
				}
			}
		}
	}
	if float64(same)/float64(sameN) <= float64(cross)/float64(crossN) {
		t.Errorf("same-topic cluster agreement %.2f not above cross-topic %.2f",
			float64(same)/float64(sameN), float64(cross)/float64(crossN))
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := trainSmall(t, 9)
	b := trainSmall(t, 9)
	va, vb := a.Vector("gene"), b.Vector("gene")
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same seed, different vectors")
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("want error for empty corpus")
	}
	if _, err := Train([][]string{{"a"}}, Config{MinCount: 1}); err == nil {
		t.Error("want error when no sentence has 2+ known tokens")
	}
}

func TestKMeansDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// k > V clamps; k = 1 assigns all zero.
	vecs := []float64{0, 0, 1, 1, 2, 2}
	a := kmeans(vecs, 3, 2, 10, rng)
	if len(a) != 3 {
		t.Fatal("bad assign length")
	}
	a = kmeans(vecs, 3, 2, 1, rng)
	for _, c := range a {
		if c != 0 {
			t.Error("k=1 must assign cluster 0")
		}
	}
}

func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	corpus := topicCorpus(rng, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(corpus, Config{Dim: 16, Epochs: 2, MinCount: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
