package olog

import (
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter for log lines. The slow-query
// log is threshold-gated, so a burn event — every query suddenly slow —
// would turn it into a log storm exactly when the operator needs the log
// readable; a per-tenant Limiter keeps a few exemplar lines per second
// and drops the rest; the caller counts what it drops.
//
// A nil *Limiter allows everything, so callers can thread an optional
// limiter without branching.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens replenished per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time

	now func() time.Time
}

// NewLimiter returns a limiter admitting perSec lines per second with
// bursts up to burst. Non-positive arguments are clamped to 1.
func NewLimiter(perSec float64, burst int) *Limiter {
	if perSec <= 0 {
		perSec = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{rate: perSec, burst: float64(burst), now: time.Now}
}

// Allow reports whether the caller may emit a line now, consuming a token
// if so.
func (l *Limiter) Allow() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	now := l.now()
	if l.last.IsZero() {
		l.tokens = l.burst
	} else {
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
	if l.tokens >= 1 {
		l.tokens--
		l.mu.Unlock()
		return true
	}
	l.mu.Unlock()
	return false
}
