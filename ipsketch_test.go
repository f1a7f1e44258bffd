package ipsketch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vector"
)

func paperPair(t *testing.T, overlap float64, seed uint64) (Vector, Vector) {
	t.Helper()
	a, b, err := datagen.SyntheticPair(datagen.PaperPairParams(overlap, seed))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodWMH: "WMH", MethodMH: "MH", MethodKMV: "KMV",
		MethodJL: "JL", MethodCountSketch: "CS", MethodSimHash: "SimHash",
		MethodPS: "PS", MethodTS: "TS",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Method(99).String() == "" {
		t.Error("unknown method should still format")
	}
}

// TestMethodTextRoundTrip: every method parses back from its name in any
// case (the union of what the command lines accepted before they shared
// this parser), and unknown names are rejected.
func TestMethodTextRoundTrip(t *testing.T) {
	for _, m := range Methods() {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{string(text), strings.ToLower(string(text)), strings.ToUpper(string(text))} {
			var got Method
			if err := got.UnmarshalText([]byte(s)); err != nil || got != m {
				t.Errorf("UnmarshalText(%q) = %v, %v; want %v", s, got, err, m)
			}
		}
	}
	var m Method
	if err := m.UnmarshalText([]byte("NOPE")); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMethodsLists(t *testing.T) {
	if len(Methods()) != int(numMethods)-1 { // all but the retired ICWS slot
		t.Fatalf("Methods() has %d entries", len(Methods()))
	}
	pm := PaperMethods()
	if len(pm) != 5 || pm[0] != MethodJL || pm[4] != MethodWMH {
		t.Fatalf("PaperMethods() = %v", pm)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Method: MethodWMH, StorageWords: 100, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Method: Method(99), StorageWords: 100},
		{Method: MethodWMH, StorageWords: 0},
		{Method: MethodWMH, StorageWords: -5},
		{Method: MethodWMH, StorageWords: 2},         // < 1 sample after norm word
		{Method: MethodSimHash, StorageWords: 1},     // no bits left
		{Method: MethodCountSketch, StorageWords: 3}, // < 1 bucket with 5 reps
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
		if _, err := NewSketcher(c); err == nil {
			t.Errorf("NewSketcher accepted bad config %d", i)
		}
	}
}

func TestStorageAccounting(t *testing.T) {
	cases := []struct {
		cfg      Config
		wantSize int
	}{
		{Config{Method: MethodJL, StorageWords: 400}, 400},
		{Config{Method: MethodCountSketch, StorageWords: 400}, 80}, // 400/5
		{Config{Method: MethodMH, StorageWords: 300}, 200},         // 300/1.5
		{Config{Method: MethodKMV, StorageWords: 300}, 200},
		{Config{Method: MethodWMH, StorageWords: 301}, 200}, // norm word charged
		{Config{Method: MethodWMH, StorageWords: 301, Quantize: true}, 300},
		{Config{Method: MethodSimHash, StorageWords: 5}, 256},
	}
	for _, c := range cases {
		s, err := NewSketcher(c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if s.Size() != c.wantSize {
			t.Errorf("%v budget %d: size %d, want %d",
				c.cfg.Method, c.cfg.StorageWords, s.Size(), c.wantSize)
		}
	}
}

func TestSketchStorageNearBudget(t *testing.T) {
	a, _ := paperPair(t, 0.1, 1)
	for _, m := range Methods() {
		cfg := Config{Method: m, StorageWords: 400, Seed: 1}
		s, err := NewSketcher(cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sk, err := s.Sketch(a)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := sk.StorageWords(); got > 401 {
			t.Errorf("%v: sketch uses %v words for budget 400", m, got)
		}
		if sk.Method() != m {
			t.Errorf("%v: Method() = %v", m, sk.Method())
		}
	}
}

func TestAllMethodsEstimateReasonably(t *testing.T) {
	a, b := paperPair(t, 0.5, 7)
	truth := Dot(a, b)
	scale := LinearSketchBound(a, b)
	for _, m := range Methods() {
		cfg := Config{Method: m, StorageWords: 2000, Seed: 3}
		if m == MethodSimHash {
			// SimHash packs 64 projections per word; a 2000-word budget
			// would mean 128k Gaussian projections per non-zero. 33 words
			// (2048 bits) is already generous and keeps the test fast.
			cfg.StorageWords = 33
		}
		s, err := NewSketcher(cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sa, err := s.Sketch(a)
		if err != nil {
			t.Fatalf("%v sketch: %v", m, err)
		}
		sb, err := s.Sketch(b)
		if err != nil {
			t.Fatalf("%v sketch: %v", m, err)
		}
		est, err := Estimate(sa, sb)
		if err != nil {
			t.Fatalf("%v estimate: %v", m, err)
		}
		relErr := math.Abs(est-truth) / scale
		// Generous single-shot gate; SimHash is the noisiest.
		limit := 0.25
		if m == MethodSimHash {
			limit = 0.5
		}
		if relErr > limit {
			t.Errorf("%v: estimate %v vs truth %v (scaled error %.3f > %.2f)",
				m, est, truth, relErr, limit)
		}
	}
}

func TestEstimateMismatches(t *testing.T) {
	a, _ := paperPair(t, 0.1, 9)
	mk := func(cfg Config) *Sketch {
		s, err := NewSketcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := s.Sketch(a)
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	wmhSk := mk(Config{Method: MethodWMH, StorageWords: 100, Seed: 1})
	jlSk := mk(Config{Method: MethodJL, StorageWords: 100, Seed: 1})
	if _, err := Estimate(wmhSk, jlSk); err == nil {
		t.Error("cross-method estimate accepted")
	}
	if _, err := Estimate(nil, jlSk); err == nil {
		t.Error("nil sketch accepted")
	}
	otherSeed := mk(Config{Method: MethodWMH, StorageWords: 100, Seed: 2})
	if _, err := Estimate(wmhSk, otherSeed); err == nil {
		t.Error("seed mismatch accepted")
	}
}

// TestWMHBeatsLinearAtLowOverlap is the paper's headline claim, asserted
// end-to-end through the public API at the Figure 4 configuration.
func TestWMHBeatsLinearAtLowOverlap(t *testing.T) {
	const storage = 400
	const trials = 12
	var errWMH, errJL float64
	for trial := 0; trial < trials; trial++ {
		a, b := paperPair(t, 0.05, uint64(100+trial))
		truth := Dot(a, b)
		scale := LinearSketchBound(a, b)
		for _, m := range []Method{MethodWMH, MethodJL} {
			s, err := NewSketcher(Config{Method: m, StorageWords: storage, Seed: uint64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			sa, _ := s.Sketch(a)
			sb, _ := s.Sketch(b)
			est, err := Estimate(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			e := math.Abs(est-truth) / scale
			if m == MethodWMH {
				errWMH += e
			} else {
				errJL += e
			}
		}
	}
	if errWMH >= errJL {
		t.Fatalf("WMH mean error %.5f not below JL %.5f at 5%% overlap",
			errWMH/trials, errJL/trials)
	}
}

// binaryPair draws a pair of binary vectors (all non-zero entries equal 1)
// with the same support structure as datagen.SyntheticPair: the
// binary-vector case where MinHash's Theorem 4 bound is tight.
func binaryPair(p datagen.PairParams) (a, b Vector, err error) {
	p.OutlierFrac = 0
	a, b, err = datagen.SyntheticPair(p)
	if err != nil {
		return
	}
	one := func(float64) float64 { return 1 }
	return a.Map(one), b.Map(one), nil
}

func TestBinaryPair(t *testing.T) {
	a, b, err := binaryPair(datagen.PaperPairParams(0.25, 17))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 2000 || b.NNZ() != 2000 {
		t.Fatal("binary pair wrong support size")
	}
	a.Range(func(_ uint64, v float64) bool {
		if v != 1 {
			t.Fatalf("binary entry %v", v)
		}
		return true
	})
	want := int(0.25 * 2000)
	if got := vector.SupportIntersectionSize(a, b); got != want {
		t.Fatalf("binary overlap %d, want %d", got, want)
	}
	// ⟨a,b⟩ for binary vectors = intersection size.
	if got := Dot(a, b); got != float64(want) {
		t.Fatalf("binary dot %v, want %d", got, want)
	}
}

func TestEstimateJoinSizeBinaryVectors(t *testing.T) {
	a, b, err := binaryPair(datagen.PaperPairParams(0.2, 11))
	if err != nil {
		t.Fatal(err)
	}
	truth := Dot(a, b) // 400
	for _, m := range []Method{MethodWMH, MethodMH, MethodKMV, MethodJL, MethodPS, MethodTS} {
		s, err := NewSketcher(Config{Method: m, StorageWords: 1500, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := s.Sketch(a)
		sb, _ := s.Sketch(b)
		est, err := EstimateJoinSize(sa, sb)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(est-truth)/truth > 0.25 {
			t.Errorf("%v: join size %v, want ~%v", m, est, truth)
		}
	}
}

// TestQuantizedWMHThroughPublicAPI: at equal budget, quantized WMH uses
// 50% more samples and still estimates accurately; quantized and full
// sketches are incomparable.
func TestQuantizedWMHThroughPublicAPI(t *testing.T) {
	a, b := paperPair(t, 0.1, 41)
	truth := Dot(a, b)
	scale := LinearSketchBound(a, b)
	cfgQ := Config{Method: MethodWMH, StorageWords: 400, Seed: 3, Quantize: true}
	cfgF := Config{Method: MethodWMH, StorageWords: 400, Seed: 3}
	sq, err := NewSketcher(cfgQ)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSketcher(cfgF)
	if err != nil {
		t.Fatal(err)
	}
	if sq.Size() <= sf.Size() {
		t.Fatalf("quantized samples %d not above full %d", sq.Size(), sf.Size())
	}
	qa, _ := sq.Sketch(a)
	qb, _ := sq.Sketch(b)
	est, err := Estimate(qa, qb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth)/scale > 0.15 {
		t.Fatalf("quantized estimate %v vs truth %v", est, truth)
	}
	if qa.StorageWords() > 401 {
		t.Fatalf("quantized sketch uses %v words", qa.StorageWords())
	}
	fa, _ := sf.Sketch(a)
	if _, err := Estimate(qa, fa); err == nil {
		t.Fatal("quantized/full sketches comparable")
	}
}

func TestVectorFacade(t *testing.T) {
	v, err := NewVector(10, []uint64{1, 3}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := VectorFromMap(10, map[uint64]float64{1: 2, 3: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(m) {
		t.Fatal("facade constructors disagree")
	}
	if Dot(v, m) != 20 {
		t.Fatalf("Dot = %v, want 20", Dot(v, m))
	}
	if WMHBound(v, m) > LinearSketchBound(v, m)+1e-12 {
		t.Fatal("bound ordering violated")
	}
}
