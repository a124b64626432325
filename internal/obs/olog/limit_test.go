package olog

import (
	"testing"
	"time"
)

func TestLimiterBurstThenRefill(t *testing.T) {
	l := NewLimiter(1, 3)
	now := time.Unix(1_700_000_000, 0)
	l.now = func() time.Time { return now }

	// The full burst is available immediately.
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("Allow() #%d denied within burst", i+1)
		}
	}
	if l.Allow() {
		t.Fatal("Allow() granted past the burst")
	}
	// One second refills one token — no more.
	now = now.Add(time.Second)
	if !l.Allow() {
		t.Fatal("Allow() denied after refill")
	}
	if l.Allow() {
		t.Fatal("Allow() granted a second token after one second at 1/s")
	}
	// Idle time never accumulates past the burst.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("Allow() #%d denied after long idle", i+1)
		}
	}
	if l.Allow() {
		t.Fatal("tokens accumulated past burst capacity")
	}
}

func TestLimiterClampsBadArgs(t *testing.T) {
	l := NewLimiter(-5, 0)
	if !l.Allow() {
		t.Fatal("clamped limiter denied its single burst token")
	}
}

func TestNilLimiterAllowsEverything(t *testing.T) {
	var l *Limiter
	for i := 0; i < 10; i++ {
		if !l.Allow() {
			t.Fatal("nil limiter denied")
		}
	}
}
