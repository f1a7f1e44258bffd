package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Request bodies are decoded in one pass over their bytes when they have
// the canonical shape every client in this repository sends: objects with
// the exact field names of SearchRequest and TablePayload, each field at
// most once; strings of printable ASCII without escapes; numbers that fit
// their Go type. Anything else — escapes, non-ASCII, unknown or
// differently cased names, null, repeated fields or columns, numbers out
// of range, malformed input — makes the fast path give up, and the same
// bytes go through encoding/json, which defines what is accepted,
// the decoded values and every error text. The fast path accepts only
// bodies encoding/json accepts and decodes them to the same values
// (floats by bit pattern, nil kept apart from empty); FuzzDecodeRequestBody
// checks that. Bytes after the top-level object are ignored, as
// json.Decoder.Decode ignores them. DESIGN.md §8 has the contract.

// readBody reads a request body under the server's size limit. The buffer
// starts small and doubles: the client controls Content-Length, so it is
// no guide to how much to allocate.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	return buf.Bytes(), err
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 naming the limit when the body was too large, 400 with
// err's text otherwise.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("service: request body exceeds the %d-byte limit", tooLarge.Limit))
		return
	}
	s.writeError(w, http.StatusBadRequest, err)
}

// decodeSearchRequest decodes a /search body.
func decodeSearchRequest(body []byte) (SearchRequest, error) {
	return decodeBody(body, (*decoder).searchRequest)
}

// decodeTablePayload decodes a raw-columns PUT or merge body.
func decodeTablePayload(body []byte) (TablePayload, error) {
	return decodeBody(body, (*decoder).tablePayload)
}

// decodeBody decodes body through fast when it accepts the body, and
// through encoding/json otherwise.
func decodeBody[T any](body []byte, fast func(*decoder, *T) bool) (T, error) {
	var v T
	if fast(&decoder{b: body}, &v) {
		return v, nil
	}
	var zero T
	v = zero // encoding/json decodes into what is there; start it clean
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&v)
	return v, err
}

// decoder walks a body once. Every method returns false as soon as the
// input leaves the canonical shape; the caller then falls back.
type decoder struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c, after whitespace, if it comes next.
func (d *decoder) eat(c byte) bool {
	if d.peek() == c {
		d.i++
		return true
	}
	return false
}

// object walks one object, calling member with each name once the
// decoder sits at that member's value.
func (d *decoder) object(member func(name []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		name, ok := d.rawString()
		if !ok || !d.eat(':') || !member(name) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// list walks one array, calling elem once the decoder sits at each
// element. An empty array is a call-free success.
func (d *decoder) list(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// searchRequest decodes a SearchRequest object.
func (d *decoder) searchRequest(req *SearchRequest) bool {
	var seen uint
	return d.object(func(name []byte) bool {
		var bit uint
		ok := true
		switch string(name) {
		case "table":
			bit = 1 << 0
			req.Table = new(TablePayload)
			ok = d.tablePayload(req.Table)
		case "table_name":
			bit = 1 << 1
			req.TableName, ok = d.string()
		case "sketch_b64":
			bit = 1 << 2
			req.SketchB64, ok = d.string()
		case "column":
			bit = 1 << 3
			req.Column, ok = d.string()
		case "rank_by":
			bit = 1 << 4
			req.RankBy, ok = d.string()
		case "min_join_size":
			bit = 1 << 5
			req.MinJoin, ok = d.float()
		case "k":
			bit = 1 << 6
			req.K = new(int)
			*req.K, ok = d.int()
		case "mode":
			bit = 1 << 7
			req.Mode, ok = d.string()
		case "probes":
			bit = 1 << 8
			req.Probes, ok = d.int()
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
}

// tablePayload decodes a TablePayload object.
func (d *decoder) tablePayload(p *TablePayload) bool {
	var seen uint
	return d.object(func(name []byte) bool {
		var bit uint
		ok := true
		switch string(name) {
		case "keys":
			bit = 1 << 0
			p.Keys, ok = numbers(d, (*decoder).uint)
		case "string_keys":
			bit = 1 << 1
			p.StringKeys = []string{}
			ok = d.list(func() bool {
				s, ok := d.string()
				p.StringKeys = append(p.StringKeys, s)
				return ok
			})
		case "columns":
			bit = 1 << 2
			p.Columns = map[string][]float64{}
			ok = d.object(func(name []byte) bool {
				if _, dup := p.Columns[string(name)]; dup {
					return false
				}
				vs, ok := numbers(d, (*decoder).float)
				p.Columns[string(name)] = vs
				return ok
			})
		case "agg":
			bit = 1 << 3
			p.Agg, ok = d.string()
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
}

// rawString returns the bytes of a string that needs no unescaping:
// printable ASCII (0x20–0x7F) without '"' or '\'.
func (d *decoder) rawString() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.b[d.i:i]
			d.i = i + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) string() (string, bool) {
	s, ok := d.rawString()
	return string(s), ok
}

// number returns the next token if it matches the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv accepts more
// (+1, 1., .5, 0x1p3, inf, 1_0); JSON does not. A token that runs on
// into a byte the grammar cannot take ("01", "1x") ends here, and the
// caller's check for ',', ']' or '}' refuses what follows.
func (d *decoder) number() ([]byte, bool) {
	d.peek()
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	tok := b[d.i:i]
	d.i = i
	return tok, true
}

// float parses a number as encoding/json parses one into a float64; a
// value out of range (1e400) fails, as it fails there.
func (d *decoder) float() (float64, bool) {
	tok, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

func (d *decoder) int() (int, bool) {
	tok, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err == nil
}

func (d *decoder) uint() (uint64, bool) {
	tok, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	return v, err == nil
}

// lenHint is the capacity for the number array that opens at the
// decoder: one more than the commas before the first ']', exact for a
// well-formed array. A number and its comma take at least two bytes, so
// the hint is capped at half the array's bytes, and malformed input
// cannot make it allocate more than a well-formed array of that size.
func (d *decoder) lenHint() int {
	rest := d.b[d.i:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	return min(bytes.Count(rest[:end], []byte{','})+1, end/2)
}

// numbers decodes an array of numbers, each through parse.
func numbers[T uint64 | float64](d *decoder, parse func(*decoder) (T, bool)) ([]T, bool) {
	if d.peek() != '[' {
		return nil, false
	}
	out := make([]T, 0, d.lenHint())
	ok := d.list(func() bool {
		v, ok := parse(d)
		out = append(out, v)
		return ok
	})
	return out, ok
}
