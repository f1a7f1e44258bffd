package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	ipsketch "repro"
	"repro/internal/datagen"
)

func TestScaledErrorBasics(t *testing.T) {
	a, b, err := datagen.SyntheticPair(datagen.PaperPairParams(0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := ScaledError(ipsketch.MethodWMH, 400, 7, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0 || e > 1 {
		t.Fatalf("scaled error %v outside the expected [0,1] range", e)
	}
}

func TestBuckets(t *testing.T) {
	b := Bucket{0.25, 0.5}
	if !b.Contains(0.25) || b.Contains(0.5) || b.Contains(0.1) {
		t.Fatal("bucket containment wrong")
	}
	if b.Label() != "0.25–0.5" {
		t.Fatalf("label %q", b.Label())
	}
	inf := Bucket{50, math.Inf(1)}
	if inf.Label() != "≥50" {
		t.Fatalf("label %q", inf.Label())
	}
	buckets := []Bucket{{0, 1}, {1, 2}}
	if FindBucket(buckets, 1.5) != 1 || FindBucket(buckets, 0) != 0 || FindBucket(buckets, 5) != -1 {
		t.Fatal("FindBucket wrong")
	}
}

func TestRunFigure4QuickAndQualitative(t *testing.T) {
	res, err := RunFigure4(QuickFigure4Config(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	if len(res.Err) != len(cfg.Overlaps) {
		t.Fatal("result shape wrong")
	}
	for oi := range cfg.Overlaps {
		for si := range cfg.Storages {
			for mi := range cfg.Methods {
				e := res.Err[oi][si][mi]
				if math.IsNaN(e) || e < 0 {
					t.Fatalf("invalid error at [%d][%d][%d]: %v", oi, si, mi, e)
				}
			}
		}
	}
	// Headline qualitative claim: at 1% overlap and the largest storage,
	// WMH beats JL.
	oi := 0 // overlap 0.01
	si := len(cfg.Storages) - 1
	wmh := res.MeanError(oi, si, ipsketch.MethodWMH)
	jl := res.MeanError(oi, si, ipsketch.MethodJL)
	if wmh >= jl {
		t.Errorf("1%% overlap: WMH error %.5f not below JL %.5f", wmh, jl)
	}
	if res.MeanError(0, 0, ipsketch.Method(99)) != -1 {
		t.Error("unknown method should report -1")
	}
	var buf bytes.Buffer
	if err := RenderFigure4(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "WMH") {
		t.Fatal("render missing method names")
	}
	buf.Reset()
	if err := WriteFigure4CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+len(cfg.Overlaps)*len(cfg.Storages)*len(cfg.Methods) {
		t.Fatalf("CSV has %d lines", lines)
	}
}

func TestRunFigure5Quick(t *testing.T) {
	res, err := RunFigure5(QuickFigure5Config(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsTotal == 0 {
		t.Fatal("no pairs evaluated")
	}
	// At least one populated cell per baseline, and counts consistent.
	total := 0
	for _, row := range res.Count {
		for _, c := range row {
			total += c
		}
	}
	if total == 0 {
		t.Fatal("no pairs bucketed")
	}
	var buf bytes.Buffer
	if err := RenderFigure5(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "winning tables") {
		t.Fatal("render missing header")
	}
	buf.Reset()
	if err := WriteFigure5CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "baseline") {
		t.Fatal("CSV missing header")
	}
}

func TestRunFigure6Quick(t *testing.T) {
	res, err := RunFigure6(QuickFigure6Config(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsAll == 0 {
		t.Fatal("no pairs in panel (a)")
	}
	for si := range res.Config.Storages {
		for mi := range res.Config.Methods {
			if math.IsNaN(res.ErrAll[si][mi]) {
				t.Fatal("NaN error in panel (a)")
			}
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure6(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "all documents") {
		t.Fatal("render missing panel header")
	}
	buf.Reset()
	if err := WriteFigure6CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "panel") {
		t.Fatal("CSV missing header")
	}
}

func TestRunTable1Quick(t *testing.T) {
	res, err := RunTable1(QuickTable1Config(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		for si, ratio := range row.Ratio {
			if math.IsNaN(ratio) || ratio < 0 {
				t.Fatalf("%v: invalid ratio %v", row.Method, ratio)
			}
			// The guarantee says error·√m / bound is O(1); allow a loose
			// constant. A broken bound would give ratios in the tens.
			if ratio > 10 {
				t.Errorf("%v at storage %d: ratio %v suspiciously large",
					row.Method, res.Config.Storages[si], ratio)
			}
		}
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("render missing header")
	}
	buf.Reset()
	if err := WriteTable1CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "method") {
		t.Fatal("CSV missing header")
	}
}
