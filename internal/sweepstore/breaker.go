package sweepstore

import (
	"errors"
	"sync"
)

// DefaultBreakerThreshold is how many terminal failures of the same case
// open its circuit when the server does not override it.
const DefaultBreakerThreshold = 3

// ErrQuarantined marks a case rejected without dispatch because its
// circuit breaker is open after repeated terminal failures.
var ErrQuarantined = errors.New("sweepstore: case quarantined (circuit breaker open after repeated failures)")

// Breaker is the per-case circuit breaker: a case that keeps failing
// terminally — deterministic failures like an oracle divergence, or a
// transient class that exhausts its retry budget on every submission —
// is quarantined so resubmitted jobs fail it instantly instead of
// burning worker time re-proving the same failure. Keys are the cache
// keys (content addresses), so a code change or config change that could
// plausibly fix the case also, by construction, resets its circuit.
//
// A nil *Breaker is inert: every case is allowed, nothing is recorded.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	fails     map[string]int
}

// NewBreaker returns a breaker opening each case's circuit after
// threshold terminal failures (<= 0 = DefaultBreakerThreshold).
func NewBreaker(threshold int) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	return &Breaker{threshold: threshold, fails: map[string]int{}}
}

// Allow reports whether the case may be dispatched (its circuit is not
// open).
func (b *Breaker) Allow(key string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails[key] < b.threshold
}

// Failure records one terminal failure of the case and reports whether
// that failure opened the circuit.
func (b *Breaker) Failure(key string) (opened bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails[key]++
	return b.fails[key] == b.threshold
}

// Success clears the case's failure count — a completed run proves the
// case is healthy again.
func (b *Breaker) Success(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.fails, key)
}

// Quarantined counts the cases whose circuits are currently open.
func (b *Breaker) Quarantined() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, f := range b.fails {
		if f >= b.threshold {
			n++
		}
	}
	return n
}
