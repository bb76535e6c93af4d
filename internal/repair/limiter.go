package repair

import (
	"context"
	"sync"
	"time"

	"relidev/internal/clock"
)

// limiter is a token-bucket rate limit over *blocks*: a worker acquires
// one token per block it is about to request, and blocks on the
// injected clock until the bucket covers the debt. The bucket allows a
// burst of one page so a freshly started repairer can fill its pipeline
// before the limit bites. A nil limiter (rate <= 0) is unlimited.
//
// Tokens may go negative — the caller that overdraws sleeps off the
// debt, which keeps acquire a single short critical section even when
// many workers contend.
type limiter struct {
	rate  float64 // tokens (blocks) per second
	burst float64

	mu     sync.Mutex
	clock  clock.Clock
	tokens float64
	last   time.Time
}

func newLimiter(blocksPerSec float64, burst int, clk clock.Clock) *limiter {
	if blocksPerSec <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &limiter{
		rate:   blocksPerSec,
		burst:  float64(burst),
		clock:  clk,
		tokens: float64(burst),
		last:   clk.Now(),
	}
}

// acquire takes n tokens, sleeping on the clock as needed. Returns
// early (without refunding) when ctx is done; the caller notices the
// cancellation on its next transport call.
func (l *limiter) acquire(ctx context.Context, n int) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	now := l.clock.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	l.tokens -= float64(n)
	var wait time.Duration
	if l.tokens < 0 {
		wait = time.Duration(-l.tokens / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if wait > 0 {
		l.clock.Sleep(ctx, wait)
	}
}
