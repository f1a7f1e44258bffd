package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
)

// TestCallBudgetIsWallClock: WithTimeout is a hard wall-clock deadline
// over the whole call. A server that stalls (accepts, never answers)
// must not stretch the call to attempts×stall — the budget cuts both
// the in-flight attempt and any remaining backoff.
func TestCallBudgetIsWallClock(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select { // stall until the client gives up
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hs.Close()

	budget := 250 * time.Millisecond
	cl, err := New(hs.URL,
		WithTimeout(budget),
		// Per-attempt timeout far beyond the call budget and a retry
		// budget that would, without the wall clock, allow 4 stalled
		// attempts: only the call budget can save us.
		WithAttemptTimeout(10*time.Second),
		WithRetry(4, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cl.Health(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a stalling server succeeded")
	}
	if elapsed > 3*budget {
		t.Fatalf("call took %v against a %v budget", elapsed, budget)
	}
	if !IsRetryable(err) {
		t.Fatalf("budget expiry not typed retryable: %v", err)
	}
}

// TestAttemptTimeoutFreesRetry: a stalled attempt is abandoned at the
// attempt timeout and the retry goes on to succeed, all inside the call
// budget.
func TestAttemptTimeoutFreesRetry(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-r.Context().Done() // first attempt stalls
			return
		}
		json.NewEncoder(w).Encode(service.HealthResponse{Status: "ok", Tables: 3})
	}))
	defer hs.Close()
	cl, err := New(hs.URL,
		WithTimeout(5*time.Second),
		WithAttemptTimeout(50*time.Millisecond),
		WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Tables != 3 || calls.Load() != 2 {
		t.Fatalf("health %+v after %d calls", h, calls.Load())
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New("ftp://x"); err == nil {
		t.Error("New with bad scheme succeeded")
	}
	cl, err := New("http://a:1/")
	if err != nil {
		t.Fatal(err)
	}
	if cl.base != "http://a:1" {
		t.Fatalf("base = %q, want the trailing slash trimmed", cl.base)
	}
}
