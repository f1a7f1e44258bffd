// Package telemetry is sketchd's zero-dependency metrics substrate: a
// registry of counters, gauges, and fixed-bucket histograms with atomic,
// shard-striped hot paths safe for the request path, exposed in the
// Prometheus text format (version 0.0.4).
//
// # Design
//
// Every instrument is lock-free on its hot path: counters and gauges are
// single atomics; a histogram stripes its bucket counts across
// cache-line-padded shards (the stripe is chosen from the observed
// value's bits, so concurrent observers of differing latencies touch
// different cache lines) and folds the stripes only at exposition time.
// Observe/Add/Set never allocate, so instrumented hot loops stay
// zero-allocation.
//
// Instruments are registered get-or-create by (name, label set):
// registration takes a mutex and should happen once at wiring time;
// looking an instrument up again with the same labels returns the same
// instrument, which keeps occasional label-at-request-time use (HTTP
// status codes) correct, just not free.
//
// The package depends on nothing outside the standard library and is
// imported by the storage layers (WAL, catalog) through the one-method
// Observer interface, so the dependency arrow stays pointed at this
// leaf.
package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Observer receives one observation (for latencies: in seconds).
// *Histogram implements it; the WAL and catalog accept it so they can be
// instrumented without importing this package's registry machinery.
type Observer interface {
	Observe(v float64)
}

// Label is one name="value" pair attached to an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// LatencyBuckets are the default histogram upper bounds for latencies in
// seconds: 10µs to 10s, roughly doubling — fine enough at the bottom for
// fsync and columnar-scan timings, wide enough at the top for slow
// queries and snapshot saves.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// metricKind is the exposed TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family groups the children (one per label set) of one metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	children []*child
}

// child is one labeled instrument of a family. labels is the
// pre-rendered `k="v",...` body ("" for the unlabeled child).
type child struct {
	labels string
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter registered under name and labels, creating
// it on first use. It panics if name is not a valid metric name or is
// already registered as a different kind — both are wiring bugs.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.child(name, help, kindCounter, nil, nil, labels).ctr
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.child(name, help, kindGauge, nil, nil, labels).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (catalog sizes, WAL positions, goroutine counts). Re-registering
// the same (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.child(name, help, kindGauge, nil, fn, labels)
}

// Histogram returns the fixed-bucket histogram registered under name and
// labels, creating it on first use with the given bucket upper bounds
// (nil = LatencyBuckets). Bounds must be strictly increasing and finite;
// the terminal +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.child(name, help, kindHistogram, buckets, nil, labels).hist
}

// child locates (or creates) the family and its child for a label set.
// The instrument itself is created under the registry mutex, so
// concurrent get-or-create of the same (name, labels) — the status-code
// counter path — always hands every caller the same instrument.
func (r *Registry) child(name, help string, kind metricKind, buckets []float64, fn func() float64, labels []Label) *child {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	var ch *child
	for _, c := range f.children {
		if c.labels == ls {
			ch = c
			break
		}
	}
	if ch == nil {
		ch = &child{labels: ls}
		f.children = append(f.children, ch)
		sort.Slice(f.children, func(i, j int) bool { return f.children[i].labels < f.children[j].labels })
	}
	switch kind {
	case kindCounter:
		if ch.ctr == nil {
			ch.ctr = &Counter{}
		}
	case kindGauge:
		if fn != nil {
			ch.fn = fn
		} else if ch.gauge == nil {
			ch.gauge = &Gauge{}
		}
	case kindHistogram:
		if ch.hist == nil {
			ch.hist = NewHistogram(buckets)
		}
	}
	return ch
}

// validName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// renderLabels renders a label set to its canonical `k="v",...` body.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.Key) || l.Key == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the text format.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they are ignored to keep
// the exposition monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable value (float64, atomically updated).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc and Dec adjust by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histShards stripes a histogram's counts to keep concurrent observers
// off each other's cache lines; must be a power of two.
const histShards = 8

// histShard is one stripe: per-bucket counts (the last slot is the +Inf
// overflow) plus the float-bits sum, padded to its own cache lines.
type histShard struct {
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	_       [48]byte // keep neighbouring shards' sums off one line
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe.
type Histogram struct {
	upper  []float64 // strictly increasing finite upper bounds
	shards [histShards]histShard
}

// NewHistogram returns an unregistered histogram with the given bucket
// upper bounds (nil = LatencyBuckets). Most callers want
// Registry.Histogram instead; this constructor exists for instruments
// passed into lower layers before a registry exists.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	upper := append([]float64(nil), buckets...)
	for i, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram bucket bounds must be finite")
		}
		if i > 0 && upper[i-1] >= b {
			panic("telemetry: histogram bucket bounds must be strictly increasing")
		}
	}
	h := &Histogram{upper: upper}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(upper)+1)
	}
	return h
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum). Never allocates.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Stripe by the value's bits: concurrent observers of differing
	// values spread across shards; identical values share one, which is
	// still correct, just contended in the worst case.
	bits := math.Float64bits(v)
	bits ^= bits >> 33
	bits *= 0xff51afd7ed558ccd
	sh := &h.shards[bits&(histShards-1)]
	// Binary search for the first bucket with v <= upper bound.
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.upper[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	sh.counts[lo].Add(1)
	for {
		old := sh.sumBits.Load()
		if sh.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince observes the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// snapshot folds the stripes into cumulative bucket counts, the total
// count, and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.upper)+1)
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			cum[b] += sh.counts[b].Load()
		}
		sum += math.Float64frombits(sh.sumBits.Load())
	}
	for b := 1; b < len(cum); b++ {
		cum[b] += cum[b-1]
	}
	return cum, cum[len(cum)-1], sum
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	_, n, _ := h.snapshot()
	return n
}

// Sum returns the sum of all observations so far.
func (h *Histogram) Sum() float64 {
	_, _, s := h.snapshot()
	return s
}

// WritePrometheus renders every registered family in the text exposition
// format, families sorted by name, children by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		// Copy the children under the lock: child() appends to and
		// re-sorts this slice concurrently. Instrument reads and fn()
		// calls happen on the copies after unlock so gauge callbacks
		// never run while holding the registry mutex.
		r.mu.Lock()
		children := make([]child, len(f.children))
		for i, c := range f.children {
			children[i] = *c
		}
		r.mu.Unlock()
		for _, ch := range children {
			switch {
			case ch.ctr != nil:
				writeSample(&b, f.name, "", ch.labels, "", float64(ch.ctr.Value()))
			case ch.fn != nil:
				writeSample(&b, f.name, "", ch.labels, "", ch.fn())
			case ch.gauge != nil:
				writeSample(&b, f.name, "", ch.labels, "", ch.gauge.Value())
			case ch.hist != nil:
				cum, count, sum := ch.hist.snapshot()
				for i, ub := range ch.hist.upper {
					writeSample(&b, f.name, "_bucket", ch.labels, formatFloat(ub), float64(cum[i]))
				}
				writeSample(&b, f.name, "_bucket", ch.labels, "+Inf", float64(count))
				writeSample(&b, f.name, "_sum", ch.labels, "", sum)
				writeSample(&b, f.name, "_count", ch.labels, "", float64(count))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample renders one `name{labels} value` line; le, when non-empty,
// is appended to the label body as the bucket bound.
func writeSample(b *strings.Builder, name, suffix, labels, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if le != "" {
			if labels != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value: integral values without an
// exponent (counters read naturally), everything else shortest
// round-trip.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ErrNoMetrics is returned by Lint on an empty exposition.
var ErrNoMetrics = errors.New("telemetry: no metrics in exposition")
