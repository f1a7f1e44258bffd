package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
)

// fastOpts keeps test retries quick.
func fastOpts() []Option {
	return []Option{WithRetry(3, time.Millisecond), WithTimeout(2 * time.Second)}
}

// TestRetryOn503ThenSuccess: transient 503s are retried with backoff
// until the server recovers.
func TestRetryOn503ThenSuccess(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(service.ErrorResponse{Error: "not ready"})
			return
		}
		json.NewEncoder(w).Encode(service.HealthResponse{Status: "ok", Tables: 7})
	}))
	defer hs.Close()
	cl, err := New(hs.URL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Tables != 7 {
		t.Fatalf("health = %+v", h)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
}

// TestNoRetryOn4xx: client errors are terminal — one attempt, typed
// error carrying the status and server message.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(service.ErrorResponse{Error: "bad column"})
	}))
	defer hs.Close()
	cl, err := New(hs.URL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Search(context.Background(), service.SearchRequest{})
	if err == nil {
		t.Fatal("4xx did not error")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a client *Error: %v", err)
	}
	if ce.Status != http.StatusBadRequest || ce.Retryable || ce.Attempts != 1 || ce.Message != "bad column" {
		t.Fatalf("error = %+v", ce)
	}
	if StatusOf(err) != http.StatusBadRequest || IsRetryable(err) {
		t.Fatal("helpers disagree with the error")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1", calls.Load())
	}
}

// TestRetryBudgetExhausted: a persistently failing server consumes the
// whole budget and the final error reports the attempt count.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer hs.Close()
	cl, err := New(hs.URL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Health(context.Background())
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a client *Error: %v", err)
	}
	if ce.Attempts != 3 || !ce.Retryable || ce.Status != http.StatusInternalServerError {
		t.Fatalf("error = %+v", ce)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

// TestConnectionErrorRetries: connection refused is a retryable
// transport failure — the budget is spent, the typed error wraps the
// dial error with Status 0.
func TestConnectionErrorRetries(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := hs.URL
	hs.Close() // nothing listens here anymore
	cl, err := New(url, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Health(context.Background())
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a client *Error: %v", err)
	}
	if ce.Status != 0 || !ce.Retryable || ce.Attempts != 3 || ce.Err == nil {
		t.Fatalf("error = %+v", ce)
	}
}

// TestDeadlineExceededIsTypedRetryable: a context deadline maps to a
// typed retryable error, and the retry loop stops once the context is
// done instead of burning the rest of the budget.
func TestDeadlineExceededIsTypedRetryable(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hs.Close()
	cl, err := New(hs.URL, WithRetry(5, time.Millisecond), WithTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = cl.Health(ctx)
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a client *Error: %v", err)
	}
	if !ce.Retryable {
		t.Fatalf("deadline error not marked retryable: %+v", ce)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline not unwrappable: %v", err)
	}
	if ce.Attempts > 2 {
		t.Fatalf("retried %d times past a dead context", ce.Attempts)
	}
}

// TestCanceledIsNotRetried: explicit cancellation is terminal and not
// marked retryable.
func TestCanceledIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-r.Context().Done()
	}))
	defer hs.Close()
	cl, err := New(hs.URL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, err = cl.Health(ctx)
	if err == nil {
		t.Fatal("canceled call succeeded")
	}
	if IsRetryable(err) {
		t.Fatalf("cancellation marked retryable: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1", calls.Load())
	}
}

// TestMergeSendsStableIdempotencyKey: MergeTable generates one key and
// reuses it across its internal retries, so the daemon's dedupe cache
// sees a single logical request.
func TestMergeSendsStableIdempotencyKey(t *testing.T) {
	var keys []string
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get(service.HeaderIdempotencyKey))
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(service.MergeResponse{Table: "t", Merged: true})
	}))
	defer hs.Close()
	cl, err := New(hs.URL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.MergeTable(context.Background(), "t",
		service.TablePayload{Keys: []uint64{1}, Columns: map[string][]float64{"v": {1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Merged {
		t.Fatalf("resp = %+v", resp)
	}
	if len(keys) != 3 {
		t.Fatalf("server saw %d attempts", len(keys))
	}
	if keys[0] == "" || len(keys[0]) != 32 {
		t.Fatalf("bad idempotency key %q", keys[0])
	}
	if keys[1] != keys[0] || keys[2] != keys[0] {
		t.Fatalf("key changed across retries: %v", keys)
	}

	// A second logical merge gets a different key.
	calls.Store(2)
	if _, err := cl.MergeTable(context.Background(), "t",
		service.TablePayload{Keys: []uint64{1}, Columns: map[string][]float64{"v": {1}}}); err != nil {
		t.Fatal(err)
	}
	if keys[3] == keys[0] {
		t.Fatal("fresh merge reused the previous idempotency key")
	}
}

// TestUntaggedMergeIsNotRetried: an explicitly empty key opts out of
// idempotency, so the client must not auto-retry the non-idempotent
// request.
func TestUntaggedMergeIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	cl, err := New(hs.URL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.MergeTableTagged(context.Background(), "t",
		service.TablePayload{Keys: []uint64{1}, Columns: map[string][]float64{"v": {1}}}, "")
	if err == nil {
		t.Fatal("merge against a 503 server succeeded")
	}
	if calls.Load() != 1 {
		t.Fatalf("untagged merge retried: %d calls", calls.Load())
	}
}

// TestWaitReady polls until the daemon flips ready.
func TestWaitReady(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 4 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(service.ReadyResponse{Status: "replaying"})
			return
		}
		json.NewEncoder(w).Encode(service.ReadyResponse{Status: "ready"})
	}))
	defer hs.Close()
	cl, err := New(hs.URL, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("server saw %d probes, want 4", calls.Load())
	}
}

// TestNewIdempotencyKeyUnique: keys are fresh and well-formed.
func TestNewIdempotencyKeyUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		k, err := NewIdempotencyKey()
		if err != nil {
			t.Fatal(err)
		}
		if len(k) != 32 || seen[k] {
			t.Fatalf("key %d = %q (dup=%v)", i, k, seen[k])
		}
		seen[k] = true
	}
}
