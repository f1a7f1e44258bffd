package ipsketch

import (
	"errors"
	"strings"
	"testing"
)

// The backend registry's contract: every Method resolves to a complete
// descriptor, every pairwise estimator rejects incompatible pairs, and
// capability surfaces fail uniformly for methods that lack them.

// TestRegistryCoversEveryMethod: every slot but the retired ICWS one holds
// a descriptor whose required operations are all set — a struct, unlike
// an interface, does not force a method to exist.
func TestRegistryCoversEveryMethod(t *testing.T) {
	for m := Method(0); m < numMethods; m++ {
		be, err := backendFor(m)
		if m == methodICWSRemoved {
			if backends[m] != nil || !errors.Is(err, errICWSRemoved) {
				t.Errorf("retired slot %d: descriptor %v, err %v; want none and errICWSRemoved", int(m), backends[m], err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d: no backend registered: %v", int(m), err)
		}
		if be.name != m.String() {
			t.Errorf("%v: backend name %q != String %q", m, be.name, m.String())
		}
		for field, missing := range map[string]bool{
			"size":       be.size == nil,
			"newBuilder": be.newBuilder == nil,
			"compatible": be.compatible == nil,
			"estimate":   be.estimate == nil,
			"unmarshal":  be.unmarshal == nil,
		} {
			if missing {
				t.Errorf("%v: descriptor has no %s", m, field)
			}
		}
	}
	if _, err := backendFor(numMethods); err == nil {
		t.Error("out-of-range method resolved to a backend")
	}
	if _, err := backendFor(Method(-1)); err == nil {
		t.Error("negative method resolved to a backend")
	}
}

// TestEstimateRejectsIncompatibleSketchers builds, for every method, pairs
// of sketches from sketchers that differ in exactly one knob — seed, size,
// or a WMH quantization or discretization — and demands an error from every pairwise estimator. A
// mismatch must never return silent garbage.
func TestEstimateRejectsIncompatibleSketchers(t *testing.T) {
	a, _ := paperPair(t, 0.2, 3)
	mk := func(t *testing.T, cfg Config) *Sketch {
		t.Helper()
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
	for _, m := range Methods() {
		t.Run(m.String(), func(t *testing.T) {
			budget := 60
			if m == MethodSimHash {
				budget = 3
			}
			base := Config{Method: m, StorageWords: budget, Seed: 1}
			ref := mk(t, base)

			// Identical configuration from an independent sketcher must
			// remain comparable.
			if _, err := Estimate(ref, mk(t, base)); err != nil {
				t.Fatalf("identical configs incomparable: %v", err)
			}

			bad := map[string]Config{
				"seed": {Method: m, StorageWords: budget, Seed: 2},
				"size": {Method: m, StorageWords: budget * 2, Seed: 1},
			}
			if m == MethodWMH {
				bad["quantize variant"] = Config{Method: m, StorageWords: budget, Seed: 1, Quantize: true}
				bad["discretization"] = Config{Method: m, StorageWords: budget, Seed: 1, L: 1 << 20}
			}
			pairs := map[string][2]*Sketch{}
			for name, cfg := range bad {
				pairs[name] = [2]*Sketch{ref, mk(t, cfg)}
			}
			for name, pair := range pairs {
				if _, err := Estimate(pair[0], pair[1]); err == nil {
					t.Errorf("%s mismatch accepted by Estimate", name)
				}
				if _, err := EstimateJoinSize(pair[0], pair[1]); err == nil {
					t.Errorf("%s mismatch accepted by EstimateJoinSize", name)
				}
			}
		})
	}
}

// TestEstimateRejectsDimensionMismatch: same configuration, different
// vector universes.
func TestEstimateRejectsDimensionMismatch(t *testing.T) {
	v1, err := VectorFromMap(1000, map[uint64]float64{1: 2, 7: -1})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := VectorFromMap(2000, map[uint64]float64{1: 2, 7: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		budget := 60
		if m == MethodSimHash {
			budget = 3
		}
		s, err := NewSketcher(Config{Method: m, StorageWords: budget, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s1, err := s.Sketch(v1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := s.Sketch(v2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Estimate(s1, s2); err == nil {
			t.Errorf("%v: dimension mismatch accepted", m)
		}
	}
}

// TestCapabilitySurfaces: one row per optional descriptor field. Each row
// names the methods that set the field, so adding or dropping a capability
// in a descriptor fails here; where the field backs a public entry point,
// the row also calls it, which must succeed exactly for those methods and
// fail for the rest with an error that names the method.
func TestCapabilitySurfaces(t *testing.T) {
	a, b := paperPair(t, 0.3, 5)
	set := func(ms ...Method) map[Method]bool {
		out := map[Method]bool{}
		for _, m := range ms {
			out[m] = true
		}
		return out
	}
	rows := []struct {
		field string
		set   func(be *backend) bool
		want  map[Method]bool
		// surface calls the public entry point the field serves (nil when
		// every method has one, as EstimateJoinSize and SketchShards do).
		surface func(sa, sb *Sketch) error
	}{
		{"merge", func(be *backend) bool { return be.merge != nil },
			set(MethodWMH, MethodMH, MethodKMV, MethodJL, MethodCountSketch, MethodPS, MethodTS),
			func(sa, _ *Sketch) error { _, err := sa.Merge(sa); return err }},
		{"shards", func(be *backend) bool { return be.shards != nil }, set(MethodWMH), nil},
		{"joinSize", func(be *backend) bool { return be.joinSize != nil }, set(MethodKMV), nil},
		{"signature", func(be *backend) bool { return be.signature != nil },
			set(MethodWMH, MethodMH),
			func(sa, _ *Sketch) error { _, err := sa.LSHSignature(); return err }},
		{"withBound", func(be *backend) bool { return be.withBound != nil },
			set(MethodWMH),
			func(sa, sb *Sketch) error { _, _, err := EstimateWithBound(sa, sb); return err }},
		{"packs", func(be *backend) bool { return be.packs != nil },
			set(MethodWMH, MethodMH, MethodKMV, MethodPS, MethodTS), nil},
		{"quantize", func(be *backend) bool { return be.quantize }, set(MethodWMH), nil},
	}
	for _, m := range Methods() {
		be, err := backendFor(m)
		if err != nil {
			t.Fatal(err)
		}
		budget := 60
		if m == MethodSimHash {
			budget = 3
		}
		s, err := NewSketcher(Config{Method: m, StorageWords: budget, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := s.Sketch(a)
		sb, _ := s.Sketch(b)
		for _, r := range rows {
			want := r.want[m]
			if got := r.set(be); got != want {
				t.Errorf("%v: descriptor field %s set=%v, want %v", m, r.field, got, want)
			}
			if r.surface == nil {
				continue
			}
			err := r.surface(sa, sb)
			if got := err == nil; got != want {
				t.Errorf("%v: %s entry point error=%v, want capability %v", m, r.field, err, want)
			}
			if err != nil && !strings.Contains(err.Error(), m.String()) {
				t.Errorf("%v: %s capability error %q does not name the method", m, r.field, err)
			}
		}
	}
}

// TestQuantizableCapability: Config.Quantize is honored exactly by the
// descriptors that set the capability, and Validate rejects the flag
// everywhere else instead of silently ignoring it. The deprecated
// Config.Dart is a no-op that Validate accepts for every method.
func TestQuantizableCapability(t *testing.T) {
	for _, m := range Methods() {
		be, err := backendFor(m)
		if err != nil {
			t.Fatal(err)
		}
		want := m == MethodWMH
		if be.quantize != want {
			t.Errorf("%v: quantize=%v, want %v", m, be.quantize, want)
		}
		budget := 60
		if m == MethodSimHash {
			budget = 3
		}
		errQ := Config{Method: m, StorageWords: budget, Quantize: true}.Validate()
		if gotOK := errQ == nil; gotOK != want {
			t.Errorf("%v: Validate(Quantize) error=%v, want accepted=%v", m, errQ, want)
		}
		if err := (Config{Method: m, StorageWords: budget, Dart: true}).Validate(); err != nil {
			t.Errorf("%v: Validate(Dart) error=%v, want the deprecated flag accepted", m, err)
		}
	}
}

// TestPSTSThroughPublicAPI: the registry proof — the follow-up paper's
// sampling sketches, registered purely through one backend descriptor, are
// fully served by every public surface (construction, batch, estimate,
// median boosting, serialization).
func TestPSTSThroughPublicAPI(t *testing.T) {
	a, b := paperPair(t, 0.3, 29)
	truth := Dot(a, b)
	scale := LinearSketchBound(a, b)
	for _, m := range []Method{MethodPS, MethodTS} {
		cfg := Config{Method: m, StorageWords: 1000, Seed: 11}
		s, err := NewSketcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := s.Sketch(a)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := s.Sketch(b)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimate(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if rel := abs(est-truth) / scale; rel > 0.2 {
			t.Errorf("%v: estimate %v vs truth %v (scaled error %.3f)", m, est, truth, rel)
		}

		// Median boosting composes with the new backends untouched.
		ms, err := NewMedianSketcher(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		ma, err := ms.Sketch(a)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := ms.Sketch(b)
		if err != nil {
			t.Fatal(err)
		}
		med, err := EstimateMedian(ma, mb)
		if err != nil {
			t.Fatal(err)
		}
		if rel := abs(med-truth) / scale; rel > 0.2 {
			t.Errorf("%v: median estimate %v vs truth %v (scaled error %.3f)", m, med, truth, rel)
		}

		// Serialization round-trips through the envelope.
		data, err := sa.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := UnmarshalSketch(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Estimate(dec, sb)
		if err != nil {
			t.Fatal(err)
		}
		if got != est {
			t.Errorf("%v: decoded estimate %v, fresh %v", m, got, est)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
