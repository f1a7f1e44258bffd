package ipsketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// Sketches serialize to a versioned binary envelope so they can be stored
// in a catalog or shipped between machines:
//
//	magic "IPSK" | format version | method byte | method payload
//
// The method byte selects the backend whose unmarshal decodes the payload;
// per-method payload formats are frozen (testdata/golden pins them), so a
// new method is a new byte value, never a change to an existing layout.
//
// A sketch decoded with UnmarshalSketch is fully usable: Estimate works
// against freshly computed sketches of the same configuration.

// serializedMagic identifies the envelope.
var serializedMagic = [4]byte{'I', 'P', 'S', 'K'}

// serializedVersion is the current envelope version.
const serializedVersion = 1

// ErrBadEnvelope is returned when the magic or version does not match.
var ErrBadEnvelope = errors.New("ipsketch: not a serialized sketch (bad magic/version)")

// MarshalBinary encodes the sketch into the versioned envelope.
func (sk *Sketch) MarshalBinary() ([]byte, error) {
	// Every constructor (Sketcher.Sketch, batch workers, UnmarshalSketch)
	// resolves a registered backend before attaching a payload, so a
	// non-nil payload implies a valid method.
	if sk.payload == nil {
		return nil, fmt.Errorf("ipsketch: cannot marshal empty sketch of method %d", int(sk.method))
	}
	p, err := sk.payload.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var w wire.Writer
	w.Byte(serializedMagic[0])
	w.Byte(serializedMagic[1])
	w.Byte(serializedMagic[2])
	w.Byte(serializedMagic[3])
	w.Byte(serializedVersion)
	w.Byte(byte(sk.method))
	out := append(w.Bytes(), p...)
	return out, nil
}

// UnmarshalSketch decodes a sketch from the versioned envelope.
func UnmarshalSketch(data []byte) (*Sketch, error) {
	if len(data) < 6 {
		return nil, ErrBadEnvelope
	}
	for i, b := range serializedMagic {
		if data[i] != b {
			return nil, ErrBadEnvelope
		}
	}
	if data[4] != serializedVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadEnvelope, data[4])
	}
	method := Method(data[5])
	be, err := backendFor(method)
	if errors.Is(err, errICWSRemoved) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("ipsketch: unknown method byte %d", data[5])
	}
	p, err := be.unmarshal(data[6:])
	if err != nil {
		return nil, err
	}
	return &Sketch{method: method, payload: p}, nil
}

// Table sketch bundles and whole indexes serialize by framing the
// per-sketch envelope above, so the frozen per-method payload formats are
// reused unchanged:
//
//	table bundle: magic "IPST" | version | name | key space |
//	              key-sketch frame | #cols | (col name, value frame,
//	              squared-value frame)*
//	index:        magic "IPSX" | version | #tables | (u32 frame length,
//	              table bundle)*
//
// where a frame is a u32 byte length followed by that many bytes of the
// framed encoding. The index envelope is streamed: EncodeIndex writes to
// an io.Writer and DecodeIndex reads table by table, so a snapshot never
// needs a second whole-catalog buffer in memory. Entries are encoded in
// index scan order and re-added in that order, so a decoded index ranks
// searches bit-exactly like the one that was saved.

// tableSketchMagic identifies a serialized table sketch bundle.
var tableSketchMagic = [4]byte{'I', 'P', 'S', 'T'}

// indexMagic identifies a serialized sketch index.
var indexMagic = [4]byte{'I', 'P', 'S', 'X'}

// tableSketchVersion and indexVersion are the current envelope versions.
const (
	tableSketchVersion = 1
	indexVersion       = 1
)

// MaxNameLen is the longest table or column name the serialized envelopes
// accept. The encoder enforces it too, so any catalog that can be saved
// can also be loaded back; ingest layers reject longer names up front.
const MaxNameLen = 1 << 16

// Decode-side limits: hostile inputs must fail fast instead of allocating
// unbounded memory.
const (
	maxNameLen    = MaxNameLen
	maxFrameBytes = 1 << 30 // any single framed encoding
)

// ErrBadTableEnvelope is returned when a table-sketch envelope's magic or
// version does not match.
var ErrBadTableEnvelope = errors.New("ipsketch: not a serialized table sketch (bad magic/version)")

// ErrBadIndexEnvelope is returned when an index envelope's magic or
// version does not match.
var ErrBadIndexEnvelope = errors.New("ipsketch: not a serialized sketch index (bad magic/version)")

// MarshalBinary encodes the table sketch bundle. Names longer than
// MaxNameLen are rejected here (the decoder would refuse them), so every
// encodable bundle is decodable.
func (tsk *TableSketch) MarshalBinary() ([]byte, error) {
	if len(tsk.Name) > MaxNameLen {
		return nil, fmt.Errorf("ipsketch: table name of %d bytes exceeds MaxNameLen", len(tsk.Name))
	}
	for _, c := range tsk.cols {
		if len(c) > MaxNameLen {
			return nil, fmt.Errorf("ipsketch: column name of %d bytes exceeds MaxNameLen", len(c))
		}
	}
	var w wire.Writer
	w.Raw(tableSketchMagic[:])
	w.Byte(tableSketchVersion)
	w.Str32(tsk.Name)
	w.U64(tsk.keySpace)
	frame := func(sk *Sketch) error {
		b, err := sk.MarshalBinary()
		if err != nil {
			return err
		}
		w.U32(uint32(len(b)))
		w.Raw(b)
		return nil
	}
	if err := frame(tsk.key); err != nil {
		return nil, err
	}
	w.U32(uint32(len(tsk.cols)))
	for i, c := range tsk.cols {
		w.Str32(c)
		if err := frame(tsk.val[i]); err != nil {
			return nil, err
		}
		if err := frame(tsk.sqVal[i]); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// UnmarshalTableSketch decodes a table sketch bundle. Hostile inputs —
// truncation, implausible lengths, duplicate columns, or sketches whose
// configurations do not match within the bundle — are rejected with an
// error, never a panic.
func UnmarshalTableSketch(data []byte) (*TableSketch, error) {
	r := wire.NewReader(data)
	var magic [4]byte
	copy(magic[:], r.Raw(4))
	version := r.Byte()
	if r.Err() != nil || magic != tableSketchMagic {
		return nil, ErrBadTableEnvelope
	}
	if version != tableSketchVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadTableEnvelope, version)
	}
	name := r.Str32(maxNameLen)
	keySpace := r.U64()
	frame := func() (*Sketch, error) {
		n := int(r.U32())
		b := r.Raw(n)
		if err := r.Err(); err != nil {
			return nil, err
		}
		return UnmarshalSketch(b)
	}
	key, err := frame()
	if r.Err() != nil {
		return nil, fmt.Errorf("ipsketch: decoding table sketch: %w", r.Err())
	}
	if err != nil {
		return nil, fmt.Errorf("ipsketch: decoding table %q key sketch: %w", name, err)
	}
	if name == "" {
		return nil, errors.New("ipsketch: serialized table sketch has an empty name")
	}
	ncols := int(r.U32())
	if ncols > len(data) { // each column costs many bytes; length-bound check
		return nil, fmt.Errorf("ipsketch: implausible column count %d", ncols)
	}
	out := &TableSketch{
		Name:     name,
		keySpace: keySpace,
		key:      key,
		cols:     make([]string, 0, ncols),
		val:      make([]*Sketch, 0, ncols),
		sqVal:    make([]*Sketch, 0, ncols),
	}
	for i := 0; i < ncols; i++ {
		col := r.Str32(maxNameLen)
		if r.Err() == nil && col == "" {
			return nil, errors.New("ipsketch: serialized table sketch has an empty column name")
		}
		// The encoder writes the columns in ascending order, so a name at
		// or below its predecessor is a duplicate or out of order.
		if i > 0 && r.Err() == nil && col <= out.cols[i-1] {
			if col == out.cols[i-1] {
				return nil, fmt.Errorf("ipsketch: duplicate serialized column %q", col)
			}
			return nil, fmt.Errorf("ipsketch: serialized column %q out of order after %q", col, out.cols[i-1])
		}
		val, err := frame()
		var sq *Sketch
		if err == nil {
			sq, err = frame()
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("ipsketch: decoding table sketch: %w", r.Err())
		}
		if err != nil {
			return nil, fmt.Errorf("ipsketch: decoding column %q of table %q: %w", col, name, err)
		}
		// A well-formed bundle comes from one sketcher; reject mixed
		// configurations here so a hostile snapshot cannot poison searches.
		if err := Compatible(key, val); err != nil {
			return nil, fmt.Errorf("ipsketch: column %q of table %q incompatible with key sketch: %w", col, name, err)
		}
		if err := Compatible(key, sq); err != nil {
			return nil, fmt.Errorf("ipsketch: column %q of table %q incompatible with key sketch: %w", col, name, err)
		}
		out.cols, out.val, out.sqVal = append(out.cols, col), append(out.val, val), append(out.sqVal, sq)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("ipsketch: decoding table sketch: %w", err)
	}
	return out, nil
}

// EncodeIndex streams the index to w: the envelope header followed by one
// length-prefixed table bundle per entry, in index scan order.
func EncodeIndex(w io.Writer, ix *SketchIndex) error {
	if ix == nil {
		return errors.New("ipsketch: nil index")
	}
	var hdr wire.Writer
	hdr.Raw(indexMagic[:])
	hdr.Byte(indexVersion)
	hdr.U64(uint64(len(ix.entries)))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	var lenBuf [4]byte
	for _, e := range ix.entries {
		blob, err := e.MarshalBinary()
		if err != nil {
			return fmt.Errorf("ipsketch: encoding table %q: %w", e.Name, err)
		}
		if len(blob) > maxFrameBytes {
			return fmt.Errorf("ipsketch: table %q encodes to %d bytes, above the frame limit", e.Name, len(blob))
		}
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(blob); err != nil {
			return err
		}
	}
	return nil
}

// DecodeIndex streams an index from r, reading exactly the bytes
// EncodeIndex wrote (trailing reader content is left unconsumed). The
// decoded index preserves the encoded scan order, so search rankings are
// bit-exact with the encoded index's. Truncated or hostile input fails
// with an error, never a panic, and never a count-sized allocation up
// front. Every frame is read into one reused buffer; r is read as it is,
// so a caller reading a file should buffer it.
func DecodeIndex(r io.Reader) (*SketchIndex, error) {
	hdr := make([]byte, 4+1+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexEnvelope, err)
	}
	if [4]byte(hdr[:4]) != indexMagic {
		return nil, ErrBadIndexEnvelope
	}
	if hdr[4] != indexVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadIndexEnvelope, hdr[4])
	}
	count := binary.LittleEndian.Uint64(hdr[5:])
	ix := NewSketchIndex()
	var (
		lenBuf [4]byte
		frame  []byte // reused: every decoder copies what it keeps
	)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("ipsketch: decoding index entry %d: %w", i, err)
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxFrameBytes {
			return nil, fmt.Errorf("ipsketch: index entry %d frames %d bytes, above the frame limit", i, n)
		}
		var err error
		if frame, err = readFrame(r, frame, int(n)); err != nil {
			return nil, fmt.Errorf("ipsketch: decoding index entry %d (%d of %d frame bytes): %w", i, len(frame), n, err)
		}
		tsk, err := UnmarshalTableSketch(frame)
		if err != nil {
			return nil, fmt.Errorf("ipsketch: decoding index entry %d: %w", i, err)
		}
		if _, dup := ix.Get(tsk.Name); dup {
			return nil, fmt.Errorf("ipsketch: duplicate table %q in serialized index", tsk.Name)
		}
		if err := ix.Add(tsk); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// readFrame reads the next n bytes of r into buf's array and returns
// them (or, on an error, what it read). It grows the array only as bytes
// arrive, at most doubling what it has read, so a hostile length prefix
// on a short stream fails after reading what exists instead of
// allocating the claimed size; a buffer reused across frames stops
// growing once it holds the largest.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		end := min(n, max(cap(buf), 2*len(buf), 4096))
		buf = slices.Grow(buf, end-len(buf))
		got, err := io.ReadFull(r, buf[len(buf):end])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
