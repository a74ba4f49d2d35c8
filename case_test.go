package cdf

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// TestExecCase pins the case executor at its own boundary: a fake attempt
// stands in for the simulator, so each row checks one rule of the cache,
// retry, journal and breaker policy without simulating anything.
func TestExecCase(t *testing.T) {
	prev := sweepstore.SetCodeVersion("exec-case-test")
	defer sweepstore.SetCodeVersion(prev)

	const bench = "astar"
	opt := Options{Mode: ModeCDF, MaxUops: 2000, Seed: 7}
	done := Result{Benchmark: bench, Mode: ModeCDF, StopReason: StopCompleted, Cycles: 1234}
	transient := func(int) error { return &harness.SimError{Reason: harness.ReasonPanic} }
	divergent := func(int) error { return &harness.SimError{Reason: harness.ReasonDivergence} }
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	tests := []struct {
		name    string
		setup   func(t *testing.T, store *sweepstore.Store, dir string)
		ctx     context.Context
		retries int
		runs    int             // ExecCase calls on the same store and breaker (0 = 1)
		fail    func(int) error // the attempt's error by attempt number (nil = success)

		wantCalls       int   // attempt calls over all runs
		wantFromCache   bool  // of the last run
		wantErr         error // matched with errors.Is against the last run's error
		wantErrText     string
		wantFailed      []int // Attempts of each journaled failure record
		wantDone        []int // Attempts of each journaled completion record
		wantRetries     int64
		wantQuarantined int
	}{
		{
			name:      "verified hit never calls the attempt",
			runs:      2,
			wantCalls: 1, wantFromCache: true, wantDone: []int{1},
		},
		{
			name:    "transient failure then success is persisted once",
			retries: 2,
			fail: func(n int) error {
				if n == 0 {
					return transient(n)
				}
				return nil
			},
			wantCalls: 2, wantDone: []int{2}, wantRetries: 1,
		},
		{
			name:      "retryable failure spends the budget, then is journaled once",
			retries:   2,
			fail:      transient,
			wantCalls: 3, wantErr: harness.ErrPanic, wantFailed: []int{3}, wantRetries: 2,
		},
		{
			name:      "deterministic failure fails fast",
			retries:   2,
			fail:      divergent,
			wantCalls: 1, wantErr: harness.ErrDivergence, wantFailed: []int{1},
		},
		{
			name:    "canceled context is neither journaled nor charged to the breaker",
			ctx:     canceled,
			retries: 2,
			runs:    2,
			fail: func(int) error {
				return &harness.SimError{Reason: harness.ReasonCanceled}
			},
			wantCalls: 2, wantErr: context.Canceled,
		},
		{
			name: "put failure surfaces as computed but not persisted",
			setup: func(t *testing.T, _ *sweepstore.Store, dir string) {
				// A file where the cache's object directory belongs makes
				// every cache write fail.
				if err := os.WriteFile(filepath.Join(dir, "objects"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantCalls: 1, wantErrText: "result computed but not persisted",
		},
		{
			name:      "breaker opens at its threshold, then quarantines without an attempt",
			runs:      3,
			fail:      divergent,
			wantCalls: 2, wantErr: sweepstore.ErrQuarantined, wantFailed: []int{1, 1}, wantQuarantined: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := sweepstore.Open(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if tc.setup != nil {
				tc.setup(t, store, dir)
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			breaker := sweepstore.NewBreaker(2)
			p := CasePolicy{Store: store, Retries: tc.retries, Breaker: breaker,
				Backoff: sweepstore.Backoff{Base: time.Microsecond, Cap: time.Microsecond}}
			calls := 0
			attempt := func(_ context.Context, b string, o Options, _ string, n int) (Result, error) {
				calls++
				if b != bench || !reflect.DeepEqual(o, opt) {
					t.Errorf("attempt got case %s %+v, want %s %+v", b, o, bench, opt)
				}
				if tc.fail != nil {
					if err := tc.fail(n); err != nil {
						return Result{}, err
					}
				}
				return done, nil
			}

			var (
				res       Result
				fromCache bool
			)
			for range max(tc.runs, 1) {
				res, fromCache, err = ExecCase(ctx, bench, opt, "", p, attempt)
			}

			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case tc.wantErrText != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErrText) {
					t.Fatalf("err = %v, want %q", err, tc.wantErrText)
				}
			case err != nil:
				t.Fatalf("err = %v", err)
			default:
				if !reflect.DeepEqual(res, done) {
					t.Fatalf("result = %+v, want %+v", res, done)
				}
			}
			if calls != tc.wantCalls {
				t.Errorf("attempt called %d times, want %d", calls, tc.wantCalls)
			}
			if fromCache != tc.wantFromCache {
				t.Errorf("fromCache = %v, want %v", fromCache, tc.wantFromCache)
			}
			var failed, completed []int
			for _, rec := range store.Cases() {
				switch rec.Status {
				case sweepstore.StatusFailed:
					failed = append(failed, rec.Attempts)
				case sweepstore.StatusDone:
					completed = append(completed, rec.Attempts)
				}
			}
			if !slices.Equal(failed, tc.wantFailed) || !slices.Equal(completed, tc.wantDone) {
				t.Errorf("journal: failed attempts %v, done attempts %v; want %v, %v",
					failed, completed, tc.wantFailed, tc.wantDone)
			}
			if got := store.Stats().Retries; got != tc.wantRetries {
				t.Errorf("store counted %d retries, want %d", got, tc.wantRetries)
			}
			if got := breaker.Quarantined(); got != tc.wantQuarantined {
				t.Errorf("breaker quarantines %d cases, want %d", got, tc.wantQuarantined)
			}
		})
	}
}
