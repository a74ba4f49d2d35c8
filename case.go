package cdf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// CasePolicy is the durability, retry and quarantine policy ExecCase runs
// a case under. The zero value runs the case once, uncached.
type CasePolicy struct {
	// Store serves verified cache hits and makes every fresh result
	// durable — cached, then journaled — before ExecCase returns it; a
	// terminal failure is journaled too (nil = no durability).
	Store *sweepstore.Store
	// Retries is the budget of re-attempts after transient failures
	// (sweepstore.Retryable); deterministic failures fail fast.
	Retries int
	// Backoff paces the retries; a zero Seed takes the case's Options.Seed.
	Backoff sweepstore.Backoff
	// Breaker quarantines a case after repeated terminal failures (nil =
	// none). It is keyed by the cache key, so it needs Store.
	Breaker *sweepstore.Breaker
	// Logf reports retries and opened circuits (nil = silent).
	Logf func(format string, args ...any)
}

// Attempt makes one try at a case; caseID and attempt key its chaos
// draws.
type Attempt func(ctx context.Context, bench string, opt Options, caseID string, attempt int) (Result, error)

// ExecCase is the one case executor every sweep runs its cases through:
// the in-process sweep and RunCached with the InProcess attempt, the
// sweep service with its subprocess-worker attempt. It serves a verified
// cache hit without calling attempt; refuses a quarantined case with
// sweepstore.ErrQuarantined; otherwise calls attempt, retrying transient
// failures with backoff up to p.Retries and failing fast on deterministic
// ones. A completed result is persisted and journaled before it is
// returned; a terminal failure is journaled and charged to the breaker. A
// canceled or expired ctx is the sweep stopping, not the case failing:
// it is neither journaled nor charged, and the returned error satisfies
// errors.Is(err, ctx.Err()).
//
// caseID keys the chaos and backoff-jitter draws; "" selects the cache
// key when p.Store is set, else "bench/mode".
func ExecCase(ctx context.Context, bench string, opt Options, caseID string, p CasePolicy, attempt Attempt) (Result, bool, error) {
	var key string
	if p.Store != nil {
		k, err := CaseKey(bench, opt)
		if err != nil {
			return Result{}, false, err
		}
		key = k
		if res, ok := cachedResult(p.Store, key, bench, opt.Mode); ok {
			return res, true, nil
		}
	}
	if caseID == "" {
		caseID = key
	}
	if caseID == "" {
		caseID = bench + "/" + opt.Mode.String()
	}
	if !p.Breaker.Allow(key) {
		return Result{}, false, fmt.Errorf("%w: %s", sweepstore.ErrQuarantined, caseID)
	}
	bo := p.Backoff
	if bo.Seed == 0 {
		bo.Seed = opt.Seed
	}
	for n := 0; ; n++ {
		res, err := attempt(ctx, bench, opt, caseID, n)
		if err == nil {
			if p.Store != nil {
				payload, perr := json.Marshal(res)
				if perr == nil {
					perr = p.Store.Put(key, payload, sweepstore.Record{Bench: bench, Mode: opt.Mode.String(),
						Status: sweepstore.StatusDone, Attempts: n + 1})
				}
				if perr != nil {
					// The run succeeded but the durability contract did
					// not: surface it rather than silently losing the
					// crash-safety the caller asked for.
					return Result{}, false, fmt.Errorf("cdf: %s/%s: result computed but not persisted: %w",
						bench, opt.Mode, perr)
				}
			}
			p.Breaker.Success(key)
			return res, false, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, false, stopped(err, cerr)
		}
		if !sweepstore.Retryable(err) || n >= p.Retries {
			if p.Store != nil {
				// Best-effort terminal-failure record; the failure itself
				// reaches the caller either way.
				_ = p.Store.Fail(sweepstore.Record{Key: key, Bench: bench, Mode: opt.Mode.String(),
					Status: sweepstore.StatusFailed, Reason: sweepstore.FailureReason(err), Attempts: n + 1})
			}
			if p.Breaker.Failure(key) && p.Logf != nil {
				p.Logf("cdf: %s: circuit opened after repeated terminal failures", caseID)
			}
			return Result{}, false, err
		}
		if p.Store != nil {
			p.Store.NoteRetry()
		}
		if p.Logf != nil {
			p.Logf("cdf: %s attempt %d failed (%v); retrying", caseID, n, err)
		}
		if serr := bo.Sleep(ctx, caseID, n); serr != nil {
			return Result{}, false, stopped(err, serr)
		}
	}
}

// stopped is the error of a case whose sweep stopped: the attempt's own
// failure (which carries the machine snapshot), still matching the
// context error the caller tests for.
func stopped(err, ctxErr error) error {
	if errors.Is(err, ctxErr) {
		return err
	}
	return fmt.Errorf("%w (%w)", err, ctxErr)
}

// InProcess returns the attempt that simulates in this process: chaos's
// pre-dispatch faults (delay, panic) for (caseID, attempt), then
// RunContext. Any panic — injected or the simulator's own — is recovered
// into the same *harness.SimError shape a simulator panic produces, so
// the retry policy treats them uniformly.
func InProcess(chaos *harness.Chaos) Attempt {
	return func(ctx context.Context, bench string, opt Options, caseID string, attempt int) (res Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &harness.SimError{Reason: harness.ReasonPanic, PanicValue: r,
					Stack: debug.Stack(), Seed: opt.Seed}
			}
		}()
		chaos.BeforeCase(caseID, attempt)
		return RunContext(ctx, bench, opt)
	}
}

// Cached returns the store's verified result for the case, if it holds
// one: the check ExecCase applies before simulating.
func Cached(store *sweepstore.Store, bench string, opt Options) (Result, bool) {
	key, err := CaseKey(bench, opt)
	if err != nil {
		return Result{}, false
	}
	return cachedResult(store, key, bench, opt.Mode)
}

// cachedResult fetches and decodes a verified cache entry. Beyond the
// store's integrity checks, the decoded payload must actually be the
// requested case's completed result — a store can lose work, it must
// never substitute it.
func cachedResult(store *sweepstore.Store, key, bench string, mode Mode) (Result, bool) {
	payload, ok := store.Get(key)
	if !ok {
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return Result{}, false
	}
	if res.Benchmark != bench || res.Mode != mode || res.StopReason != StopCompleted {
		return Result{}, false
	}
	return res, true
}
