package corpus

import (
	"math"
	"testing"

	"repro/internal/hashing"
	"repro/internal/stats"
	"repro/internal/vector"
)

// cosine is the cosine similarity of two L2-normalized vectors: their
// inner product, the paper's Figure 6 similarity measure.
func cosine(a, b vector.Sparse) float64 { return vector.Dot(a, b) }

// featureHash mirrors the unigram feature hashing of featureCounts.
func featureHash(w int, dim uint64) uint64 {
	return hashing.Mix(0x756e69, uint64(w)) % dim
}

func TestValidate(t *testing.T) {
	if PaperParams(1).Validate() != nil {
		t.Fatal("paper params rejected")
	}
	base := PaperParams(1)
	mutations := []func(*Params){
		func(p *Params) { p.NumDocs = 0 },
		func(p *Params) { p.VocabSize = 1 },
		func(p *Params) { p.NumTopics = 0 },
		func(p *Params) { p.MinLen = 0 },
		func(p *Params) { p.MaxLen = p.MinLen - 1 },
		func(p *Params) { p.ZipfS = 0 },
		func(p *Params) { p.TopicMix = 1.5 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Generate(p); err == nil {
			t.Errorf("Generate accepted mutation %d", i)
		}
	}
}

func smallParams(seed uint64) Params {
	p := PaperParams(seed)
	p.NumDocs = 120
	p.VocabSize = 3000
	return p
}

func TestGenerateShape(t *testing.T) {
	p := smallParams(7)
	docs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != p.NumDocs {
		t.Fatalf("got %d docs", len(docs))
	}
	topics := map[int]int{}
	long := 0
	for i, d := range docs {
		if d.ID != i {
			t.Fatal("doc IDs not sequential")
		}
		if d.Len() < p.MinLen || d.Len() > p.MaxLen {
			t.Fatalf("doc %d length %d outside bounds", i, d.Len())
		}
		if d.Topic < 0 || d.Topic >= p.NumTopics {
			t.Fatalf("doc %d topic %d out of range", i, d.Topic)
		}
		topics[d.Topic]++
		if d.Len() > 700 {
			long++
		}
		for _, w := range d.Words {
			if w < 0 || w >= p.VocabSize {
				t.Fatalf("word id %d out of vocabulary", w)
			}
		}
	}
	if len(topics) < p.NumTopics/2 {
		t.Fatalf("only %d topics used", len(topics))
	}
	if long == 0 {
		t.Fatal("no documents longer than 700 words — Figure 6(b) needs a length tail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(smallParams(3))
	b, _ := Generate(smallParams(3))
	for i := range a {
		if a[i].Topic != b[i].Topic || a[i].Len() != b[i].Len() {
			t.Fatal("same seed produced different corpora")
		}
		for j := range a[i].Words {
			if a[i].Words[j] != b[i].Words[j] {
				t.Fatal("same seed produced different words")
			}
		}
	}
	c, _ := Generate(smallParams(4))
	if c[0].Len() == a[0].Len() && c[1].Len() == a[1].Len() && c[2].Len() == a[2].Len() &&
		c[0].Words[0] == a[0].Words[0] && c[1].Words[0] == a[1].Words[0] {
		t.Fatal("different seeds produced suspiciously identical corpora")
	}
}

func TestZipfShape(t *testing.T) {
	p := smallParams(11)
	p.TopicMix = 0 // pure global distribution
	docs, _ := Generate(p)
	counts := map[int]int{}
	total := 0
	for _, d := range docs {
		for _, w := range d.Words {
			counts[w]++
			total++
		}
	}
	// Word 0 is the global Zipf head; it must dominate the median word.
	if counts[0] < total/100 {
		t.Fatalf("head word frequency %d of %d too low for Zipf", counts[0], total)
	}
	if len(counts) < 200 {
		t.Fatalf("only %d distinct words used", len(counts))
	}
}

func TestSameTopicDocsMoreSimilar(t *testing.T) {
	p := smallParams(13)
	p.TopicMix = 0.7
	docs, _ := Generate(p)
	vz, err := NewVectorizer(docs, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]vector.Sparse, len(docs))
	for i, d := range docs {
		v, err := vz.Vector(d)
		if err != nil {
			t.Fatal(err)
		}
		vecs[i] = v
	}
	var same, diff []float64
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			c := cosine(vecs[i], vecs[j])
			if docs[i].Topic == docs[j].Topic {
				same = append(same, c)
			} else {
				diff = append(diff, c)
			}
		}
	}
	if len(same) == 0 || len(diff) == 0 {
		t.Fatal("missing same/different topic pairs")
	}
	if stats.Mean(same) <= stats.Mean(diff) {
		t.Fatalf("same-topic cosine %.4f not above cross-topic %.4f",
			stats.Mean(same), stats.Mean(diff))
	}
}

func TestVectorizerBasics(t *testing.T) {
	docs := []Document{
		{ID: 0, Topic: 0, Words: []int{1, 2, 3}},
		{ID: 1, Topic: 0, Words: []int{1, 2, 3}},
		{ID: 2, Topic: 1, Words: []int{7, 8, 9}},
	}
	vz, err := NewVectorizer(docs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	v0, err := vz.Vector(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := vz.Vector(docs[1])
	v2, _ := vz.Vector(docs[2])
	if math.Abs(v0.Norm()-1) > 1e-12 {
		t.Fatalf("vector not normalized: %v", v0.Norm())
	}
	if math.Abs(cosine(v0, v1)-1) > 1e-12 {
		t.Fatalf("identical docs cosine %v, want 1", cosine(v0, v1))
	}
	if cosine(v0, v2) != 0 {
		t.Fatalf("disjoint docs cosine %v, want 0", cosine(v0, v2))
	}
	// 3 unigrams + 2 bigrams = 5 features.
	if v0.NNZ() != 5 {
		t.Fatalf("doc 0 has %d features, want 5", v0.NNZ())
	}
}

func TestVectorizerIDFDownweightsCommonWords(t *testing.T) {
	// Word 1 appears in every doc; word 99 only in doc 0. In doc 0's
	// vector the rare word must outweigh the common one (equal TF).
	docs := []Document{
		{ID: 0, Words: []int{1, 99}},
		{ID: 1, Words: []int{1, 2}},
		{ID: 2, Words: []int{1, 3}},
		{ID: 3, Words: []int{1, 4}},
	}
	vz, _ := NewVectorizer(docs, 1<<20)
	v0, _ := vz.Vector(docs[0])
	var wCommon, wRare float64
	v0.Range(func(i uint64, v float64) bool {
		return true
	})
	// Locate features by recomputing the hashes.
	common := featureHash(1, vz.Dim())
	rare := featureHash(99, vz.Dim())
	wCommon, wRare = v0.At(common), v0.At(rare)
	if wCommon <= 0 || wRare <= 0 {
		t.Fatal("expected both features present")
	}
	if wRare <= wCommon {
		t.Fatalf("rare word weight %v not above common word weight %v", wRare, wCommon)
	}
}

func TestVectorizerErrors(t *testing.T) {
	if _, err := NewVectorizer(nil, 1<<20); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := NewVectorizer([]Document{{ID: 0, Words: []int{1}}}, 0); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestVectorizerEmptyDocument(t *testing.T) {
	docs := []Document{{ID: 0, Words: []int{1, 2}}}
	vz, _ := NewVectorizer(docs, 1<<20)
	v, err := vz.Vector(Document{ID: 1, Words: nil})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsEmpty() {
		t.Fatal("empty document should vectorize to the empty vector")
	}
}

// TestLongerDocsOverlapMore: the property Figure 6(b) exploits — longer
// documents produce vectors with more support overlap.
func TestLongerDocsOverlapMore(t *testing.T) {
	p := smallParams(17)
	docs, _ := Generate(p)
	vz, _ := NewVectorizer(docs, 1<<24)
	type entry struct {
		v   vector.Sparse
		len int
	}
	var es []entry
	for _, d := range docs {
		v, _ := vz.Vector(d)
		es = append(es, entry{v, d.Len()})
	}
	var shortOv, longOv []float64
	for i := 0; i < len(es); i++ {
		for j := i + 1; j < len(es); j++ {
			ov := vector.Jaccard(es[i].v, es[j].v)
			if es[i].len > 400 && es[j].len > 400 {
				longOv = append(longOv, ov)
			} else if es[i].len < 150 && es[j].len < 150 {
				shortOv = append(shortOv, ov)
			}
		}
	}
	if len(shortOv) == 0 || len(longOv) == 0 {
		t.Skip("length buckets not populated for this seed")
	}
	if stats.Mean(longOv) <= stats.Mean(shortOv) {
		t.Fatalf("long-doc overlap %.4f not above short-doc overlap %.4f",
			stats.Mean(longOv), stats.Mean(shortOv))
	}
}
