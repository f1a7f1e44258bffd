package client

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// retryPolicy is the client's retry discipline, a bounded retry budget:
// at most maxAttempts requests, exponential backoff from base capped at
// ceiling, full jitter drawn from a per-policy xorshift stream. Safe for
// concurrent use.
type retryPolicy struct {
	maxAttempts   int
	base, ceiling time.Duration
	jitterSeed    atomic.Uint64
}

// newRetryPolicy returns a policy seeded from the system entropy pool (a
// zero seed degrades to deterministic jitter, never a panic).
func newRetryPolicy(maxAttempts int, base, ceiling time.Duration) *retryPolicy {
	p := &retryPolicy{maxAttempts: maxAttempts, base: base, ceiling: ceiling}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		p.jitterSeed.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	return p
}

// backoff returns the sleep before retry n (0-based: the wait between
// attempt n+1 and attempt n+2), exponential with full jitter, honoring a
// server-provided Retry-After (seconds) as a floor when present.
func (p *retryPolicy) backoff(n int, retryAfter string) time.Duration {
	d := p.base << uint(n)
	if d > p.ceiling || d <= 0 {
		d = p.ceiling
	}
	// xorshift on a per-policy seed: cheap, lock-free jitter.
	for {
		s := p.jitterSeed.Load()
		x := s
		if x == 0 {
			x = 0x9e3779b97f4a7c15
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if p.jitterSeed.CompareAndSwap(s, x) {
			d = d/2 + time.Duration(x%uint64(d/2+1))
			break
		}
	}
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			if floor := time.Duration(secs) * time.Second; floor > d && floor <= 10*time.Second {
				d = floor
			}
		}
	}
	return d
}

// sleep waits out backoff(n, retryAfter) or returns ctx.Err() early.
func (p *retryPolicy) sleep(ctx context.Context, n int, retryAfter string) error {
	t := time.NewTimer(p.backoff(n, retryAfter))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableTransport classifies a transport error. Connection failures
// and timeouts are safe to retry; an explicit context cancellation is
// not.
func retryableTransport(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	// Timeouts — a per-attempt client timeout or a context deadline —
	// and connection errors (refused, reset, DNS) are all transient from
	// the caller's point of view.
	return true
}

// retryableStatus classifies an HTTP status: 429 and every 5xx.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code/100 == 5
}
