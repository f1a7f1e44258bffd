// Package client is a small Go client for the sketchd HTTP API (the
// service package): typed wrappers over the endpoints, sharing the wire
// types so decoded results convert losslessly back to library values.
//
// The client is hardened for unreliable networks and daemon restarts:
// every request runs under a timeout, connection errors and 5xx/503
// responses are retried with exponential backoff plus jitter up to a
// bounded attempt budget, and merge requests carry an Idempotency-Key
// so a retried merge is answered from the daemon's dedupe cache instead
// of double-applied (see DESIGN.md §11 for the per-endpoint table).
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	ipsketch "repro"
	"repro/service"
)

// Defaults for a freshly constructed client; override with options.
const (
	// DefaultTimeout is the per-call wall-clock budget: attempts plus
	// backoff sleeps together never exceed it (WithTimeout overrides).
	DefaultTimeout = 30 * time.Second
	// DefaultAttemptTimeout bounds one HTTP attempt, so a stalling server
	// burns at most this much of the call budget before the retry loop
	// moves on (WithAttemptTimeout overrides).
	DefaultAttemptTimeout = 10 * time.Second
	DefaultMaxAttempts    = 4
	DefaultBackoffBase    = 100 * time.Millisecond
	DefaultBackoffCap     = 2 * time.Second
)

// Error is the typed failure of one client call, after retries. Status
// is the HTTP status (0 for transport errors), Retryable reports
// whether the failure class is safe to retry (the client already has,
// up to its budget — the flag tells callers whether trying again later
// could help), and Attempts counts the requests issued.
type Error struct {
	Op        string // "PUT /tables/x"
	Status    int    // HTTP status; 0 when no response arrived
	Message   string // server-provided error body, if any
	Retryable bool
	Attempts  int
	Err       error // underlying transport/decode error, if any

	// RequestID is the X-Request-ID the failing response carried — the
	// client sends one on every request (the same ID across a call's
	// retries) and the server echoes it, so this names the exact
	// server-side access-log lines and slowlog entries to look at.
	RequestID string
	// IdempotentReplay reports that the failing response was marked
	// X-Idempotent-Replay: the server answered from its dedupe cache, so
	// the error describes the original application, not a fresh one.
	IdempotentReplay bool

	retryAfter string // server-provided Retry-After, if any
}

// Error implements error.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "client: %s", e.Op)
	switch {
	case e.Message != "":
		fmt.Fprintf(&b, ": %s (HTTP %d)", e.Message, e.Status)
	case e.Status != 0:
		fmt.Fprintf(&b, ": HTTP %d", e.Status)
	case e.Err != nil:
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	if e.Attempts > 1 {
		fmt.Fprintf(&b, " (after %d attempts)", e.Attempts)
	}
	if e.IdempotentReplay {
		b.WriteString(" (idempotent replay)")
	}
	if e.RequestID != "" {
		fmt.Fprintf(&b, " [request %s]", e.RequestID)
	}
	return b.String()
}

// Unwrap exposes the underlying transport error for errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// StatusOf returns the HTTP status of a client failure, or 0 when err
// is nil, not a client *Error, or a transport-level failure.
func StatusOf(err error) int {
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Status
	}
	return 0
}

// IsRetryable reports whether err is a client *Error whose failure
// class (connection error, timeout, 429/5xx) is safe to retry.
func IsRetryable(err error) bool {
	var ce *Error
	return errors.As(err, &ce) && ce.Retryable
}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transport, TLS, instrumentation). Its Timeout, when zero, is left
// zero: pair with WithTimeout or manage deadlines via contexts.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout sets the per-call wall-clock budget: a hard deadline
// covering every attempt AND every backoff sleep of one logical call
// (0 disables). A call never takes longer than this, no matter how the
// attempts and sleeps interleave.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.callTimeout = d }
}

// WithAttemptTimeout bounds a single HTTP attempt (0 disables), so a
// stalling server frees the retry loop to try again within the call
// budget.
func WithAttemptTimeout(d time.Duration) Option {
	return func(c *Client) { c.hc.Timeout = d }
}

// WithRetry bounds the retry budget: at most maxAttempts requests per
// call (1 disables retries), exponential backoff starting at base.
func WithRetry(maxAttempts int, base time.Duration) Option {
	return func(c *Client) {
		if maxAttempts >= 1 {
			c.retry.maxAttempts = maxAttempts
		}
		if base > 0 {
			c.retry.base = base
		}
	}
}

// Client talks to a sketchd instance. Safe for concurrent use.
type Client struct {
	base        string
	hc          *http.Client
	callTimeout time.Duration
	// retry is the attempt budget and backoff schedule.
	retry *retryPolicy
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:7207"). The client gets its own http.Client with
// DefaultAttemptTimeout, a DefaultTimeout per-call budget, and retries
// transient failures up to DefaultMaxAttempts times; override with
// options.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{
		base:        strings.TrimRight(u.String(), "/"),
		hc:          &http.Client{Timeout: DefaultAttemptTimeout},
		callTimeout: DefaultTimeout,
		retry:       newRetryPolicy(DefaultMaxAttempts, DefaultBackoffBase, DefaultBackoffCap),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// NewIdempotencyKey returns a fresh random request ID for the
// Idempotency-Key header (128 bits, hex).
func NewIdempotencyKey() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("client: generating idempotency key: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// newRequestID mints the X-Request-ID for one logical call (64 random
// bits, hex). The same ID is reused across a call's retries, so the
// server's access log groups them under one ID. Entropy-pool
// failure degrades to an empty ID (the server then assigns one).
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// do issues one request — retrying transient failures when idempotent
// is true — and decodes the JSON response into out. The body is
// replayed from the byte slice on each attempt. The call budget
// (WithTimeout) is a hard wall-clock deadline over attempts AND
// backoff sleeps: a slow attempt cannot push the call past it, because
// the deadline rides the per-attempt request contexts too. context
// deadline expiry surfaces as a typed retryable *Error (the failure
// class is transient) even though the loop itself stops once ctx is
// done.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, headers map[string]string, idempotent bool, out any) error {
	if c.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.callTimeout)
		defer cancel()
	}
	op := method + " " + path
	attempts := c.retry.maxAttempts
	if !idempotent {
		attempts = 1
	}
	requestID := newRequestID()
	var last *Error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && c.retry.sleep(ctx, attempt-1, last.retryAfter) != nil {
			last.Attempts = attempt
			return last
		}
		last = c.attemptID(ctx, method, path, contentType, body, headers, requestID, out)
		if last == nil {
			return nil
		}
		last.Attempts = attempt + 1
		last.Op = op
		if !last.Retryable || ctx.Err() != nil {
			return last
		}
	}
	return last
}

// attempt issues a single request with a fresh request ID (the retrying
// do loop uses attemptID to keep one ID across a call's attempts).
func (c *Client) attempt(ctx context.Context, method, path, contentType string, body []byte, headers map[string]string, out any) *Error {
	return c.attemptID(ctx, method, path, contentType, body, headers, newRequestID(), out)
}

// attemptID issues a single request carrying requestID. A nil
// return means success with out populated; otherwise the *Error
// classifies the failure (Op and Attempts are filled in by the caller).
func (c *Client) attemptID(ctx context.Context, method, path, contentType string, body []byte, headers map[string]string, requestID string, out any) *Error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return &Error{Err: err, RequestID: requestID}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if requestID != "" {
		req.Header.Set(service.HeaderRequestID, requestID)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &Error{Err: err, Retryable: retryableTransport(err), RequestID: requestID}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		e := &Error{
			Status:           resp.StatusCode,
			Retryable:        retryableStatus(resp.StatusCode),
			retryAfter:       resp.Header.Get("Retry-After"),
			RequestID:        resp.Header.Get(service.HeaderRequestID),
			IdempotentReplay: resp.Header.Get(service.HeaderIdempotentReplay) == "true",
		}
		if e.RequestID == "" {
			e.RequestID = requestID
		}
		var body service.ErrorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body) == nil && body.Error != "" {
			e.Message = body.Error
		}
		return e
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &Error{Err: fmt.Errorf("decoding response: %w", err), RequestID: requestID}
	}
	return nil
}

// doJSON marshals body as JSON and issues the request.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any, headers map[string]string, idempotent bool) error {
	enc, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(ctx, method, path, "application/json", enc, headers, idempotent, out)
}

// PutTable ingests raw columns; the daemon sketches them server-side.
// PUT replaces whole-sketch state, so retries are safe.
func (c *Client) PutTable(ctx context.Context, name string, payload service.TablePayload) (service.PutResponse, error) {
	var out service.PutResponse
	err := c.doJSON(ctx, http.MethodPut, "/tables/"+url.PathEscape(name), payload, &out, nil, true)
	return out, err
}

// PutSketch ingests a pre-built table sketch bundle under name.
func (c *Client) PutSketch(ctx context.Context, name string, tsk *ipsketch.TableSketch) (service.PutResponse, error) {
	var out service.PutResponse
	blob, err := tsk.MarshalBinary()
	if err != nil {
		return out, err
	}
	err = c.do(ctx, http.MethodPut, "/tables/"+url.PathEscape(name), "application/octet-stream", blob, nil, true, &out)
	return out, err
}

// MergeTable pushes raw columns of one table partition to be sketched
// server-side and folded into the cataloged sketch under name (created
// when absent). Producers holding disjoint partitions of a table call
// this independently; the daemon rolls the partials up atomically.
// A fresh Idempotency-Key is generated per call, so retries (the
// client's own and the caller's) cannot double-apply the partial.
func (c *Client) MergeTable(ctx context.Context, name string, payload service.TablePayload) (service.MergeResponse, error) {
	key, err := NewIdempotencyKey()
	if err != nil {
		return service.MergeResponse{}, err
	}
	return c.MergeTableTagged(ctx, name, payload, key)
}

// MergeTableTagged is MergeTable with a caller-chosen Idempotency-Key:
// reuse one key across caller-level retries of the same logical merge.
func (c *Client) MergeTableTagged(ctx context.Context, name string, payload service.TablePayload, key string) (service.MergeResponse, error) {
	var out service.MergeResponse
	err := c.doJSON(ctx, http.MethodPost, "/tables/"+url.PathEscape(name)+"/merge", payload, &out,
		map[string]string{service.HeaderIdempotencyKey: key}, key != "")
	return out, err
}

// MergeSketch is MergeTable with a locally pre-built partial sketch
// bundle, so the partition's raw columns never leave the producer.
func (c *Client) MergeSketch(ctx context.Context, name string, tsk *ipsketch.TableSketch) (service.MergeResponse, error) {
	var out service.MergeResponse
	key, err := NewIdempotencyKey()
	if err != nil {
		return out, err
	}
	blob, err := tsk.MarshalBinary()
	if err != nil {
		return out, err
	}
	err = c.do(ctx, http.MethodPost, "/tables/"+url.PathEscape(name)+"/merge", "application/octet-stream", blob,
		map[string]string{service.HeaderIdempotencyKey: key}, true, &out)
	return out, err
}

// DeleteTable removes a table; Removed reports whether it existed.
// Note a retried DELETE whose first attempt succeeded reports
// Removed=false (the table is already gone) — deletion is idempotent
// in effect, not in response.
func (c *Client) DeleteTable(ctx context.Context, name string) (bool, error) {
	var out service.DeleteResponse
	err := c.do(ctx, http.MethodDelete, "/tables/"+url.PathEscape(name), "", nil, nil, true, &out)
	return out.Removed, err
}

// Search ranks the catalog against the request's query column.
func (c *Client) Search(ctx context.Context, req service.SearchRequest) ([]ipsketch.SearchResult, error) {
	var out service.SearchResponse
	if err := c.doJSON(ctx, http.MethodPost, "/search", req, &out, nil, true); err != nil {
		return nil, err
	}
	results := make([]ipsketch.SearchResult, len(out.Results))
	for i, h := range out.Results {
		results[i] = h.Result()
	}
	return results, nil
}

// SearchFull is Search returning the wire response instead of library
// results.
func (c *Client) SearchFull(ctx context.Context, req service.SearchRequest) (service.SearchResponse, error) {
	var out service.SearchResponse
	err := c.doJSON(ctx, http.MethodPost, "/search", req, &out, nil, true)
	return out, err
}

// SearchSketch is Search with a locally pre-built query sketch, so the
// query columns never leave the client. q.K < 0 asks for the full
// ranking. With q.LSH the daemon answers through its banded candidate
// index (mode=lsh): sublinear candidate generation followed by exact
// rescoring, probing q.Probes bands (0 = the server's default budget);
// the daemon must run with -lsh-bands and -lsh-rows, otherwise the
// request fails with a 400 *Error.
func (c *Client) SearchSketch(ctx context.Context, q ipsketch.Query) ([]ipsketch.SearchResult, error) {
	blob, err := q.Sketch.MarshalBinary()
	if err != nil {
		return nil, err
	}
	req := service.SearchRequest{
		SketchB64: base64.StdEncoding.EncodeToString(blob),
		Column:    q.Column,
		RankBy:    service.RankByName(q.RankBy),
		MinJoin:   q.MinJoinSize,
	}
	if q.LSH {
		req.Mode, req.Probes = service.SearchModeLSH, q.Probes
	}
	if q.K >= 0 {
		req.K = &q.K
	}
	return c.Search(ctx, req)
}

// Estimate returns the pairwise join statistics of two cataloged tables.
func (c *Client) Estimate(ctx context.Context, req service.EstimateRequest) (ipsketch.JoinStats, error) {
	var out service.EstimateResponse
	if err := c.doJSON(ctx, http.MethodPost, "/estimate", req, &out, nil, true); err != nil {
		return ipsketch.JoinStats{}, err
	}
	return out.Stats.Stats(), nil
}

// Snapshot asks the daemon to persist its catalog.
func (c *Client) Snapshot(ctx context.Context) (service.SnapshotResponse, error) {
	var out service.SnapshotResponse
	err := c.do(ctx, http.MethodPost, "/snapshot", "", nil, nil, true, &out)
	return out, err
}

// Health returns the daemon's liveness report.
func (c *Client) Health(ctx context.Context) (service.HealthResponse, error) {
	var out service.HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", "", nil, nil, true, &out)
	return out, err
}

// Ready probes /readyz once — no retries, so pollers control their own
// cadence. nil means the daemon is accepting traffic; a 503 *Error
// means it is replaying or draining.
func (c *Client) Ready(ctx context.Context) error {
	var out service.ReadyResponse
	if e := c.attempt(ctx, http.MethodGet, "/readyz", "", nil, nil, &out); e != nil {
		e.Op = "GET /readyz"
		e.Attempts = 1
		return e
	}
	return nil
}

// WaitReady polls /readyz until the daemon is ready or ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for i := 0; ; i++ {
		err := c.Ready(ctx)
		if err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		if c.retry.sleep(ctx, min(i, 4), "") != nil {
			return fmt.Errorf("client: daemon not ready: %w (last: %v)", ctx.Err(), err)
		}
	}
}

// Stats returns the daemon's counters and configuration.
func (c *Client) Stats(ctx context.Context) (service.StatsResponse, error) {
	var out service.StatsResponse
	err := c.do(ctx, http.MethodGet, "/statsz", "", nil, nil, true, &out)
	return out, err
}
