package client

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestBackoffBounds: the client's wait before a retry stays in
// (0, ceiling] and respects a sane Retry-After floor.
func TestBackoffBounds(t *testing.T) {
	cl, err := New("http://localhost:1", WithRetry(10, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 20; n++ {
		d := cl.retry.backoff(n, "")
		if d <= 0 || d > cl.retry.ceiling {
			t.Fatalf("backoff(%d) = %v outside (0, %v]", n, d, cl.retry.ceiling)
		}
	}
	if d := cl.retry.backoff(0, "1"); d < time.Second {
		t.Fatalf("Retry-After floor ignored: %v", d)
	}
	if d := cl.retry.backoff(0, "3600"); d > 10*time.Second {
		t.Fatalf("hostile Retry-After honored: %v", d)
	}
}

// TestPolicyBackoffBounds: the wait before retry n lies in [d/2, d] for
// d = base·2ⁿ capped at the ceiling.
func TestPolicyBackoffBounds(t *testing.T) {
	p := newRetryPolicy(4, 100*time.Millisecond, 2*time.Second)
	for n := 0; n < 10; n++ {
		exp := p.base << uint(n)
		if exp > p.ceiling || exp <= 0 {
			exp = p.ceiling
		}
		for i := 0; i < 50; i++ {
			if d := p.backoff(n, ""); d < exp/2 || d > exp {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", n, d, exp/2, exp)
			}
		}
	}
}

func TestBackoffRetryAfterFloor(t *testing.T) {
	p := newRetryPolicy(4, time.Millisecond, 10*time.Millisecond)
	if d := p.backoff(0, "2"); d != 2*time.Second {
		t.Errorf("Retry-After floor ignored: %v", d)
	}
	// A hostile or broken Retry-After must not park the client forever.
	if d := p.backoff(0, "86400"); d > 10*time.Millisecond {
		t.Errorf("oversized Retry-After honored: %v", d)
	}
	if d := p.backoff(0, "not-a-number"); d > 10*time.Millisecond {
		t.Errorf("junk Retry-After honored: %v", d)
	}
	if d := p.backoff(0, "-3"); d > 10*time.Millisecond {
		t.Errorf("negative Retry-After honored: %v", d)
	}
}

func TestZeroSeedStillJitters(t *testing.T) {
	p := &retryPolicy{maxAttempts: 2, base: time.Second, ceiling: time.Second}
	// Zero seed (no entropy) must not collapse the jitter stream to zero.
	a, b := p.backoff(0, ""), p.backoff(0, "")
	if a == b {
		t.Errorf("two zero-seed backoffs identical: %v", a)
	}
}

func TestSleepHonorsContext(t *testing.T) {
	p := newRetryPolicy(2, time.Hour, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.sleep(ctx, 0, "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sleep = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("sleep ignored context cancellation")
	}
}

func TestRetryableClassification(t *testing.T) {
	if retryableTransport(context.Canceled) {
		t.Error("context.Canceled classified retryable")
	}
	if !retryableTransport(context.DeadlineExceeded) {
		t.Error("deadline exceeded classified non-retryable")
	}
	if !retryableTransport(errors.New("connection refused")) {
		t.Error("connection error classified non-retryable")
	}
	for _, code := range []int{http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		if !retryableStatus(code) {
			t.Errorf("status %d classified non-retryable", code)
		}
	}
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict} {
		if retryableStatus(code) {
			t.Errorf("status %d classified retryable", code)
		}
	}
}
