// Package wire is the minimal binary encoding substrate used to serialize
// sketches: little-endian fixed-width scalars and length-prefixed slices,
// with sticky error handling on the read side so callers can decode a
// whole structure and check one error at the end.
//
// The format carries no type information; each sketch type defines its own
// layout (with a magic/version header at the outermost level).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when the input ends before a read completes.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTrailing is returned by Reader.Close when input remains after the
// last expected field.
var ErrTrailing = errors.New("wire: trailing bytes")

// maxSliceLen bounds decoded slice lengths as a defense against corrupt or
// hostile inputs allocating unbounded memory.
const maxSliceLen = 1 << 32

// Writer accumulates an encoded byte stream.
type Writer struct {
	buf []byte
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// F64 appends a float64 (IEEE-754 bits).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a single byte 0/1.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Byte appends one raw byte.
func (w *Writer) Byte(v byte) { w.buf = append(w.buf, v) }

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// F64s appends a length-prefixed []float64.
func (w *Writer) F64s(vs []float64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Raw appends bytes with no length prefix (for pre-encoded frames whose
// length the caller has already written).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Str32 appends a u32-length-prefixed string (strings are short — names,
// labels — so the narrower prefix keeps envelopes compact).
func (w *Writer) Str32(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader decodes a byte stream with a sticky error: after the first
// failure every subsequent read returns zero values, and Err/Close report
// the failure.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Close verifies that the input was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.data)-r.off)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data)-r.off < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a bool. Only the bytes Writer.Bool writes, 0 and
// 1, are accepted, so a decoded flag re-encodes to the byte it was read
// from; any other byte is an error.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.err = fmt.Errorf("wire: bool byte %d is neither 0 nor 1", b[0])
		return false
	}
	return b[0] == 1
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Raw reads n bytes with no length prefix. The returned slice aliases the
// input; callers that retain it must copy.
func (r *Reader) Raw(n int) []byte {
	if n < 0 {
		if r.err == nil {
			r.err = fmt.Errorf("wire: negative raw length %d", n)
		}
		return nil
	}
	return r.take(n)
}

// Str32 reads a u32-length-prefixed string, rejecting lengths above max as
// hostile input.
func (r *Reader) Str32(max int) string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	if n > max {
		r.err = fmt.Errorf("wire: implausible string length %d (max %d)", n, max)
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// sliceLen reads and sanity-checks a slice length prefix.
func (r *Reader) sliceLen() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen || int(n) > len(r.data)/8+1 {
		r.err = fmt.Errorf("wire: implausible slice length %d", n)
		return 0
	}
	return int(n)
}

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.sliceLen()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	if r.err != nil {
		return nil
	}
	return out
}
