package wire

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	var w Writer
	w.U64(42)
	w.U32(7)
	w.F64(3.14159)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.Byte(0xAB)

	r := NewReader(w.Bytes())
	if r.U64() != 42 || r.U32() != 7 {
		t.Fatal("integer round trip failed")
	}
	if r.F64() != 3.14159 || !math.IsInf(r.F64(), -1) {
		t.Fatal("float round trip failed")
	}
	if !r.Bool() || r.Bool() || r.Byte() != 0xAB {
		t.Fatal("bool/byte round trip failed")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripSlices(t *testing.T) {
	f := func(us []uint64, fs []float64) bool {
		// NaN breaks equality; replace.
		for i, v := range fs {
			if math.IsNaN(v) {
				fs[i] = 1
			}
		}
		var w Writer
		w.U64s(us)
		w.F64s(fs)
		r := NewReader(w.Bytes())
		gu, gf := r.U64s(), r.F64s()
		if err := r.Close(); err != nil {
			return false
		}
		if len(gu) != len(us) || len(gf) != len(fs) {
			return false
		}
		for i := range us {
			if gu[i] != us[i] {
				return false
			}
		}
		for i := range fs {
			if gf[i] != fs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNaNRoundTrip(t *testing.T) {
	var w Writer
	w.F64(math.NaN())
	r := NewReader(w.Bytes())
	if !math.IsNaN(r.F64()) {
		t.Fatal("NaN bits not preserved")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncated(t *testing.T) {
	var w Writer
	w.U64(1)
	data := w.Bytes()
	for cut := 0; cut < len(data); cut++ {
		r := NewReader(data[:cut])
		r.U64()
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: no truncation error", cut)
		}
		// Sticky: further reads keep failing without panicking.
		r.F64()
		r.U64s()
		if !errors.Is(r.Close(), ErrTruncated) {
			t.Fatal("Close lost the sticky error")
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	var w Writer
	w.U64(1)
	w.Byte(0xFF)
	r := NewReader(w.Bytes())
	r.U64()
	if !errors.Is(r.Close(), ErrTrailing) {
		t.Fatal("trailing bytes not reported")
	}
}

// TestBoolIsCanonical: Bool accepts only the bytes Writer.Bool writes, so
// an accepted flag re-encodes to the byte it was read from.
func TestBoolIsCanonical(t *testing.T) {
	for _, c := range []struct {
		b    byte
		want bool
		ok   bool
	}{{0, false, true}, {1, true, true}, {2, false, false}, {0xFF, false, false}} {
		r := NewReader([]byte{c.b})
		got := r.Bool()
		if err := r.Close(); (err == nil) != c.ok || got != c.want {
			t.Errorf("Bool(%#x) = %v, err %v; want %v, accepted %v", c.b, got, err, c.want, c.ok)
		}
	}
}

func TestImplausibleSliceLength(t *testing.T) {
	var w Writer
	w.U64(1 << 40) // claimed length with no payload
	r := NewReader(w.Bytes())
	if got := r.U64s(); got != nil {
		t.Fatal("hostile slice length produced data")
	}
	if r.Err() == nil {
		t.Fatal("hostile slice length not rejected")
	}
}

func TestEmptySlices(t *testing.T) {
	var w Writer
	w.U64s(nil)
	w.F64s(nil)
	r := NewReader(w.Bytes())
	if r.U64s() != nil || r.F64s() != nil {
		t.Fatal("empty slices should decode to nil")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripRawStr(t *testing.T) {
	var w Writer
	w.Str32("table-α")
	w.Raw([]byte{1, 2, 3})
	w.Str32("")

	r := NewReader(w.Bytes())
	if s := r.Str32(64); s != "table-α" {
		t.Fatalf("Str32 = %q", s)
	}
	raw := r.Raw(3)
	if len(raw) != 3 || raw[0] != 1 || raw[2] != 3 {
		t.Fatalf("Raw = %v", raw)
	}
	if s := r.Str32(64); s != "" {
		t.Fatalf("empty Str32 = %q", s)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStrRawHostileInputs(t *testing.T) {
	// Oversized string length prefix is rejected, not allocated.
	var w Writer
	w.U32(1 << 30)
	r := NewReader(w.Bytes())
	if r.Str32(16); r.Err() == nil {
		t.Fatal("implausible string length accepted")
	}

	// Truncated string body.
	var w2 Writer
	w2.U32(5)
	w2.Raw([]byte("ab"))
	r = NewReader(w2.Bytes())
	if r.Str32(16); !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated string: err = %v", r.Err())
	}

	// Truncated and negative raw reads.
	r = NewReader([]byte{1, 2})
	if r.Raw(3); !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated raw: err = %v", r.Err())
	}
	r = NewReader([]byte{1, 2})
	if r.Raw(-1); r.Err() == nil {
		t.Fatal("negative raw length accepted")
	}
}
