package psample

import (
	"reflect"
	"testing"

	"repro/internal/vector"
)

func TestSerializeRoundTrip(t *testing.T) {
	vs := map[string]int{"small": 10, "at k": 64, "large": 500}
	for _, mode := range modes() {
		for name, nnz := range vs {
			v := randomSparse(t, uint64(100+nnz), nnz)
			s, err := New(v, Params{K: 64, Seed: 3, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var dec Sketch
			if err := dec.UnmarshalBinary(data); err != nil {
				t.Fatalf("%v %s: decode: %v", mode, name, err)
			}
			if !reflect.DeepEqual(&dec, s) {
				t.Fatalf("%v %s: round trip changed the sketch", mode, name)
			}
			// The decoded sketch must interoperate with a fresh one.
			fresh, _ := New(v, Params{K: 64, Seed: 3, Mode: mode})
			want, err := Estimate(s, fresh)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Estimate(&dec, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v %s: decoded estimate %v, want %v", mode, name, got, want)
			}
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	v := randomSparse(t, 9, 100)
	s, err := New(v, Params{K: 32, Seed: 5, Mode: Priority})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		{},
		good[:len(good)-3],                      // truncated
		append(append([]byte{}, good...), 0xff), // trailing
	}
	// Zeroed K is invalid.
	zeroK := append([]byte{}, good...)
	for i := 0; i < 8; i++ {
		zeroK[i] = 0
	}
	bad = append(bad, zeroK)
	for i, data := range bad {
		var dec Sketch
		if err := dec.UnmarshalBinary(data); err == nil {
			t.Errorf("corrupt input %d accepted", i)
		}
	}
}

// TestUnmarshalRejectsInconsistentInvariants: payloads that are
// structurally well-formed but could never come from construction must be
// rejected — decoded sketches must never produce silently biased
// estimates.
func TestUnmarshalRejectsInconsistentInvariants(t *testing.T) {
	cases := map[string]*Sketch{
		// Finite threshold rank with fewer than K samples: inclusion
		// would rescale the survivors as if K were retained.
		"priority finite tau underfull": {
			params: Params{K: 4, Seed: 1, Mode: Priority},
			dim:    100, nnz: 10, normSq: 5, tau: 0.25,
			idx: []uint64{1, 3}, vals: []float64{1, -2},
		},
		// Finite threshold rank although the support fits the budget.
		"priority finite tau small support": {
			params: Params{K: 4, Seed: 1, Mode: Priority},
			dim:    100, nnz: 3, normSq: 5, tau: 0.25,
			idx: []uint64{1, 3, 4, 9}, vals: []float64{1, -2, 1, 1},
		},
		// Samples stored with a zero norm: every inclusion probability
		// clamps to 1 and the estimate degenerates to a raw product sum.
		"threshold zero norm with samples": {
			params: Params{K: 4, Seed: 1, Mode: Threshold},
			dim:    100, nnz: 10, normSq: 0, tau: inf(),
			idx: []uint64{1, 3}, vals: []float64{1, -2},
		},
	}
	for name, s := range cases {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var dec Sketch
		if err := dec.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: inconsistent payload accepted", name)
		}
	}
}

// valueAboveNormBlobs are payloads storing a value whose square exceeds
// the stored squared norm, which no construction produces: one stored
// value 1.4e160 against normSq 1.4e-76, in each mode (both self-estimate
// +Inf), and the honest threshold sketch of (1, −2, 3) at K = 8 with
// normSq 1 instead of 14 (it self-estimates 14 instead of 14.75).
func valueAboveNormBlobs(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for _, mode := range modes() {
		s := &Sketch{
			params: Params{K: 16, Seed: 7, Mode: mode},
			dim:    100, nnz: 1, normSq: 1.4e-76, tau: inf(),
			idx: []uint64{5}, vals: []float64{1.4e160},
		}
		out[mode.String()+" overflowing value"] = mustMarshal(tb, s)
	}
	v := vector.MustNew(10, []uint64{1, 2, 3}, []float64{1, -2, 3})
	s, err := New(v, Params{K: 8, Seed: 3, Mode: Threshold})
	if err != nil {
		tb.Fatal(err)
	}
	if s.Len() != 3 || s.normSq != 14 {
		tb.Fatalf("honest sketch stores %d of 3 entries with normSq %v, want all three and 14", s.Len(), s.normSq)
	}
	s.normSq = 1
	out["threshold understated norm"] = mustMarshal(tb, s)
	return out
}

func mustMarshal(tb testing.TB, s *Sketch) []byte {
	tb.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestUnmarshalRejectsValueAboveNorm: a stored value whose square exceeds
// the stored squared norm is refused in both modes.
func TestUnmarshalRejectsValueAboveNorm(t *testing.T) {
	for name, data := range valueAboveNormBlobs(t) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err == nil {
			est, _ := Estimate(&s, &s)
			t.Errorf("%s: decoded, self-estimate %v", name, est)
		}
	}
}
