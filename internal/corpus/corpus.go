// Package corpus simulates the 20-newsgroups document corpus used in the
// paper's Figure 6 text-similarity experiment, and provides the TF-IDF
// vectorization pipeline the paper applies to it ("each entry represents a
// term or a combination of 2 terms (bigrams) ... with TF-IDF weights").
//
// Substitution note (see DESIGN.md §5): the real corpus is not available
// offline. Figure 6 depends only on the statistical shape of the vectors —
// sparse, very high-dimensional TF-IDF vectors whose pairwise support
// overlap grows with document length, with a length distribution that has
// a meaningful tail beyond 700 words (panel b). The generator reproduces
// that shape: a Zipfian vocabulary shared across 20 topic-specific word
// distributions, and log-normal document lengths.
package corpus

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/hashing"
	"repro/internal/vector"
)

// Params configures corpus generation.
type Params struct {
	// NumDocs is the number of documents (the paper samples 700).
	NumDocs int
	// VocabSize is the vocabulary size.
	VocabSize int
	// NumTopics is the number of topics (newsgroups: 20).
	NumTopics int
	// MeanLogLen and SigmaLogLen parameterize the log-normal document
	// length distribution.
	MeanLogLen, SigmaLogLen float64
	// MinLen and MaxLen clamp document lengths.
	MinLen, MaxLen int
	// ZipfS is the Zipf exponent of the word frequency distribution.
	ZipfS float64
	// TopicMix is the probability that a word is drawn from the document's
	// topic-specific distribution rather than the shared global one.
	TopicMix float64
	// Seed makes the corpus reproducible.
	Seed uint64
}

// PaperParams mirrors the scale of the paper's Figure 6 experiment: 700
// documents with a length tail beyond 700 words.
func PaperParams(seed uint64) Params {
	return Params{
		NumDocs:     700,
		VocabSize:   30000,
		NumTopics:   20,
		MeanLogLen:  math.Log(250),
		SigmaLogLen: 0.9,
		MinLen:      30,
		MaxLen:      4000,
		ZipfS:       1.1,
		TopicMix:    0.5,
		Seed:        seed,
	}
}

// Validate reports whether the parameters are consistent.
func (p Params) Validate() error {
	if p.NumDocs <= 0 || p.VocabSize <= 1 || p.NumTopics <= 0 {
		return errors.New("corpus: counts must be positive (vocab > 1)")
	}
	if p.MinLen <= 0 || p.MaxLen < p.MinLen {
		return errors.New("corpus: invalid length bounds")
	}
	if p.ZipfS <= 0 {
		return errors.New("corpus: Zipf exponent must be positive")
	}
	if p.TopicMix < 0 || p.TopicMix > 1 {
		return errors.New("corpus: topic mix outside [0,1]")
	}
	return nil
}

// Document is a generated document: a topic label and a word-id sequence.
type Document struct {
	ID    int
	Topic int
	Words []int
}

// Len returns the document length in words.
func (d Document) Len() int { return len(d.Words) }

// zipfSampler draws from a Zipf(s) distribution over [0, V) by inverse CDF
// over precomputed cumulative weights.
type zipfSampler struct {
	cum []float64
}

func newZipfSampler(v int, s float64) *zipfSampler {
	cum := make([]float64, v)
	total := 0.0
	for k := 0; k < v; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &zipfSampler{cum: cum}
}

func (z *zipfSampler) draw(rng *hashing.SplitMix64) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// Generate produces the document corpus.
func Generate(p Params) ([]Document, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := hashing.NewSplitMix64(hashing.Mix(p.Seed, 0x636f7270 /* "corp" */))
	zipf := newZipfSampler(p.VocabSize, p.ZipfS)

	// Topic-specific distributions: the same Zipf shape over a permuted
	// vocabulary, so each topic has its own set of frequent words while
	// the global distribution stays Zipfian.
	perms := make([][]int, p.NumTopics)
	for t := range perms {
		perm := make([]int, p.VocabSize)
		for i := range perm {
			perm[i] = i
		}
		prng := hashing.NewSplitMix64(hashing.Mix(p.Seed, uint64(t), 0x7065726d /* "perm" */))
		hashing.Shuffle(prng, perm)
		perms[t] = perm
	}

	docs := make([]Document, p.NumDocs)
	for i := range docs {
		topic := rng.Intn(p.NumTopics)
		length := int(math.Exp(p.MeanLogLen + p.SigmaLogLen*rng.Norm()))
		if length < p.MinLen {
			length = p.MinLen
		}
		if length > p.MaxLen {
			length = p.MaxLen
		}
		words := make([]int, length)
		for w := range words {
			k := zipf.draw(rng)
			if rng.Float64() < p.TopicMix {
				k = perms[topic][k]
			}
			words[w] = k
		}
		docs[i] = Document{ID: i, Topic: topic, Words: words}
	}
	return docs, nil
}

// DefaultDim is the hashed feature space for TF-IDF vectors. The paper
// notes this setting "is well-known for generating sparse vectors of very
// high dimension"; unigram and bigram features are hashed into [0, dim).
const DefaultDim uint64 = 1 << 30

// Vectorizer converts documents to L2-normalized TF-IDF vectors over
// hashed unigram+bigram features, with document frequencies computed over
// a fitted corpus.
type Vectorizer struct {
	dim     uint64
	numDocs int
	df      map[uint64]int
}

// NewVectorizer fits document frequencies over the corpus.
func NewVectorizer(docs []Document, dim uint64) (*Vectorizer, error) {
	if dim == 0 {
		return nil, errors.New("corpus: vectorizer dimension must be positive")
	}
	if len(docs) == 0 {
		return nil, errors.New("corpus: cannot fit a vectorizer on an empty corpus")
	}
	vz := &Vectorizer{dim: dim, numDocs: len(docs), df: make(map[uint64]int)}
	for _, d := range docs {
		feats := featureCounts(d, dim)
		for f := range feats {
			vz.df[f]++
		}
	}
	return vz, nil
}

// Dim returns the hashed feature dimension.
func (vz *Vectorizer) Dim() uint64 { return vz.dim }

// featureCounts returns term frequencies over hashed unigram and bigram
// features of the document.
func featureCounts(d Document, dim uint64) map[uint64]float64 {
	feats := make(map[uint64]float64, 2*len(d.Words))
	for i, w := range d.Words {
		feats[hashing.Mix(0x756e69 /* "uni" */, uint64(w))%dim]++
		if i+1 < len(d.Words) {
			feats[hashing.Mix(0x6269 /* "bi" */, uint64(w), uint64(d.Words[i+1]))%dim]++
		}
	}
	return feats
}

// Vector returns the document's L2-normalized TF-IDF vector. Features
// never seen during fitting get the maximum IDF (df = 0 smoothing).
func (vz *Vectorizer) Vector(d Document) (vector.Sparse, error) {
	if d.Len() == 0 {
		return vector.New(vz.dim, nil, nil)
	}
	feats := featureCounts(d, vz.dim)
	m := make(map[uint64]float64, len(feats))
	for f, tf := range feats {
		// Smooth IDF (sklearn convention): ln((1+N)/(1+df)) + 1.
		idf := math.Log(float64(1+vz.numDocs)/float64(1+vz.df[f])) + 1
		m[f] = tf * idf
	}
	v, err := vector.FromMap(vz.dim, m)
	if err != nil {
		return vector.Sparse{}, fmt.Errorf("corpus: vectorizing doc %d: %w", d.ID, err)
	}
	return v.Normalize(), nil
}
