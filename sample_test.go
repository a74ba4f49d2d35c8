package cdf

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cdf/internal/workload"
)

// sampledEquivUops and the schedule below size the equivalence matrix: 20
// measured intervals over a 1M-uop run. The 8k-uop measured slice behind a
// 4k detached warmup is the floor for measurement fidelity — shorter
// slices under-read memory-bound kernels (the interval core starts with an
// empty MSHR/DRAM pipeline, and a 2k warmup doesn't rebuild the in-flight
// prefetch window, costing lbm 10% at Measure=4k) — and 20 intervals keeps
// the over-weighting of the cold first interval below a percent on
// fast-ramping kernels (sphinx). Sparser schedules magnify that cold-start
// weight: the same block at Interval=100k pushes sphinx past -6%.
const (
	sampledEquivUops     = 1_000_000
	sampledEquivInterval = 50_000
	sampledEquivMeasure  = 8_000
	sampledEquivWarmup   = 4_000
)

// TestSampledEquivalence is the accuracy contract of sampled simulation
// (DESIGN.md §12): for every machine mode and every suite kernel, the
// sampled IPC estimate must lie within 5% of the full cycle-accurate run,
// and the full-run IPC must fall inside (a hair beyond) the sampled run's
// 95% confidence interval. The sampled run executes under the lockstep
// oracle, so every measured interval is also checked architecturally.
func TestSampledEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full mode x kernel matrix")
	}
	for _, mm := range simModes {
		for _, w := range workload.All() {
			mm, w := mm, w
			t.Run(fmt.Sprintf("%s/%s", mm.name, w.Name), func(t *testing.T) {
				t.Parallel()
				opt := Options{Mode: mm.mode, MaxUops: sampledEquivUops, Seed: 1}
				if w.Frontend {
					// Frontend-bound kernels open with a heavy one-time
					// cold-I-miss transient (their code footprint exceeds
					// the L1I); skip it on both sides so the stationarity
					// assumption behind the CI holds — see
					// TestSampledFrontendEquivalence.
					opt.WarmupUops = sampledEquivInterval
				}
				full, err := Run(w.Name, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.Sampling = Sampling{
					Interval: sampledEquivInterval,
					Measure:  sampledEquivMeasure,
					Warmup:   sampledEquivWarmup,
				}
				opt.Oracle = true
				samp, err := Run(w.Name, opt)
				if err != nil {
					t.Fatal(err)
				}
				sum := samp.Sample
				if sum == nil {
					t.Fatal("sampled run has no SampleSummary")
				}
				wantIvls := int((sampledEquivUops - opt.WarmupUops) / sampledEquivInterval)
				if sum.Intervals != wantIvls {
					t.Errorf("measured %d intervals, want %d", sum.Intervals, wantIvls)
				}
				if samp.IPC != sum.IPCMean {
					t.Errorf("Result.IPC %v != interval mean %v", samp.IPC, sum.IPCMean)
				}
				relErr := math.Abs(samp.IPC-full.IPC) / full.IPC
				t.Logf("full %.4f sampled %.4f (rel err %.2f%%), CI [%.4f, %.4f]",
					full.IPC, samp.IPC, 100*relErr, sum.CILow, sum.CIHigh)
				if relErr > 0.05 {
					t.Errorf("sampled IPC %.4f deviates %.1f%% from full-run %.4f (budget 5%%)",
						samp.IPC, 100*relErr, full.IPC)
				}
				if !sum.CIOK {
					t.Fatalf("no confidence interval with %d intervals", sum.Intervals)
				}
				if full.IPC < sum.CILow || full.IPC > sum.CIHigh {
					t.Errorf("full-run IPC %.4f outside sampled 95%% CI [%.4f, %.4f]",
						full.IPC, sum.CILow, sum.CIHigh)
				}
				// Accounting: each interval measures its configured length,
				// plus at most one retire-group of overshoot (the core stops
				// at the first cycle boundary at or past MaxRetired).
				wantMeasured := uint64(sum.Intervals) * sampledEquivMeasure
				if sum.MeasuredUops < wantMeasured || sum.MeasuredUops > wantMeasured+uint64(sum.Intervals)*8 {
					t.Errorf("measured uops %d, want %d..%d", sum.MeasuredUops, wantMeasured, wantMeasured+uint64(sum.Intervals)*8)
				}
				if sum.WarmupUops != uint64(sum.Intervals)*sampledEquivWarmup {
					t.Errorf("warmup uops %d, want %d", sum.WarmupUops, uint64(sum.Intervals)*sampledEquivWarmup)
				}
			})
		}
	}
}

// TestSampledFastSlowEquivalence extends the PR-3 bit-identity contract to
// sampled mode: the optimised cycle loop and the -slowpath reference loop
// must produce identical interval statistics, totals, and IPC estimates
// when driven through the sampling harness.
func TestSampledFastSlowEquivalence(t *testing.T) {
	for _, mm := range simModes {
		mm := mm
		t.Run(mm.name, func(t *testing.T) {
			t.Parallel()
			run := func(slow bool) Result {
				res, err := Run("astar", Options{
					Mode: mm.mode, MaxUops: 100_000, Seed: 3, SlowPath: slow,
					Sampling: Sampling{Interval: 20_000, Measure: 2_000, Warmup: 1_000},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fast := run(false)
			slow := run(true)
			if fast.Cycles != slow.Cycles || fast.Uops != slow.Uops {
				t.Errorf("totals differ: fast %d cycles/%d uops, slow %d cycles/%d uops",
					fast.Cycles, fast.Uops, slow.Cycles, slow.Uops)
			}
			if fast.IPC != slow.IPC {
				t.Errorf("IPC estimate differs: fast %v, slow %v", fast.IPC, slow.IPC)
			}
			if *fast.Sample != *slow.Sample {
				t.Errorf("sample summaries differ:\nfast %+v\nslow %+v", *fast.Sample, *slow.Sample)
			}
		})
	}
}

// TestSampledDeterminism: the same sampled configuration twice gives the
// identical result (the sweep cache depends on it).
func TestSampledDeterminism(t *testing.T) {
	opt := Options{Mode: ModeCDF, MaxUops: 100_000, Seed: 9,
		Sampling: Sampling{Interval: 20_000}}
	a, err := Run("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC != b.IPC || *a.Sample != *b.Sample {
		t.Fatalf("sampled run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestSampledCaseKey is the cache-poisoning guard: sampled and full runs of
// the same case, and sampled runs with different schedules, must never
// share a sweepstore key. Explicit parameters that resolve to the same
// effective schedule as their defaulted form may share one.
func TestSampledCaseKey(t *testing.T) {
	base := Options{Mode: ModeCDF, MaxUops: 100_000, Seed: 1}
	key := func(o Options) string {
		k, err := CaseKey("astar", o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	full := key(base)

	sampled := base
	sampled.Sampling = Sampling{Interval: 20_000}
	s1 := key(sampled)
	if s1 == full {
		t.Fatal("sampled and full runs share a cache key")
	}

	differentInterval := base
	differentInterval.Sampling = Sampling{Interval: 10_000}
	if key(differentInterval) == s1 {
		t.Fatal("different sampling intervals share a cache key")
	}

	differentMeasure := base
	differentMeasure.Sampling = Sampling{Interval: 20_000, Measure: 500}
	if key(differentMeasure) == s1 {
		t.Fatal("different measure lengths share a cache key")
	}

	// Defaults are resolved before hashing: spelling out the effective
	// schedule hits the same cached result.
	spelled := base
	spelled.Sampling = Sampling{Interval: 20_000, Measure: 20_000 / 16, Warmup: 20_000 / 32}
	if key(spelled) != s1 {
		t.Fatal("explicitly spelled defaults miss the defaulted run's cache entry")
	}
}

// TestSamplingValidate covers the Sampling configuration contract.
func TestSamplingValidate(t *testing.T) {
	cases := []struct {
		name    string
		opt     Options
		wantErr string
	}{
		{"disabled", Options{Mode: ModeBaseline}, ""},
		{"enabled defaults", Options{Mode: ModeBaseline, MaxUops: 100_000,
			Sampling: Sampling{Interval: 10_000}}, ""},
		{"explicit schedule", Options{Mode: ModeBaseline, MaxUops: 100_000,
			Sampling: Sampling{Interval: 10_000, Measure: 1_000, Warmup: 500}}, ""},
		{"measure without interval", Options{Mode: ModeBaseline,
			Sampling: Sampling{Measure: 1_000}}, "without Sampling.Interval"},
		{"warmup without interval", Options{Mode: ModeBaseline,
			Sampling: Sampling{Warmup: 1_000}}, "without Sampling.Interval"},
		{"warmup skip leaves room for an interval", Options{Mode: ModeBaseline, MaxUops: 100_000, WarmupUops: 1_000,
			Sampling: Sampling{Interval: 10_000}}, ""},
		{"warmup skip squeezes out every interval", Options{Mode: ModeBaseline, MaxUops: 100_000, WarmupUops: 95_000,
			Sampling: Sampling{Interval: 10_000}}, "no interval"},
		{"schedule exceeds interval", Options{Mode: ModeBaseline, MaxUops: 100_000,
			Sampling: Sampling{Interval: 10_000, Measure: 8_000, Warmup: 4_000}}, "exceeds the interval"},
		{"interval exceeds budget", Options{Mode: ModeBaseline, MaxUops: 50_000,
			Sampling: Sampling{Interval: 60_000}}, "exceeds the run budget"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSampledProgramTooShort: a program that halts before the sampling
// schedule completes fails loudly instead of returning a partial estimate.
func TestSampledProgramTooShort(t *testing.T) {
	_, err := Run("astar", Options{Mode: ModeBaseline, MaxUops: DefaultMaxUops * 50, Seed: 1,
		Sampling: Sampling{Interval: DefaultMaxUops * 25}})
	if err == nil {
		t.Skip("kernel runs long enough; no early halt to exercise")
	}
	if !strings.Contains(err.Error(), "halted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSampledFrontendEquivalence extends the sampled-accuracy contract to
// the instruction-supply subsystem: with the timed L1I, FDIP, and the
// shadow BTB all enabled, sampled IPC on the frontend-bound kernels must
// stay within the same 5%/CI budget as the data-side suite. This is the
// demanding case for functional warming — the interval cores adopt the
// Warmer's shadow structures and throttle state, so a warming gap shows up
// directly as interval-IPC bias.
//
// Both runs skip their first 50k uops (WarmupUops): these kernels sweep a
// multi-ten-KB code footprint, so the run opens with a one-time burst of
// ~a thousand cold L1I misses whose stall cycles are a double-digit
// percentage of a 1M-uop run — a non-stationary transient that poisons the
// stratified estimator whenever a measured block lands inside it (a ~7x
// CPI outlier blows up both the mean and the CI). Skipping it on both
// sides makes the comparison steady state against steady state — the same
// reasoning SMARTS applies to cold-start transients.
func TestSampledFrontendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run reference is slow")
	}
	for _, w := range workload.All() {
		if !w.Frontend {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opt := Options{
				Mode: ModeBaseline, MaxUops: sampledEquivUops, Seed: 1,
				WarmupUops: sampledEquivInterval,
				FDIP:       true, ShadowBTB: true,
			}
			full, err := Run(w.Name, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Sampling = Sampling{
				Interval: sampledEquivInterval,
				Measure:  sampledEquivMeasure,
				Warmup:   sampledEquivWarmup,
			}
			opt.Oracle = true
			samp, err := Run(w.Name, opt)
			if err != nil {
				t.Fatal(err)
			}
			sum := samp.Sample
			if sum == nil {
				t.Fatal("sampled run has no SampleSummary")
			}
			relErr := math.Abs(samp.IPC-full.IPC) / full.IPC
			t.Logf("full %.4f sampled %.4f (rel err %.2f%%), CI [%.4f, %.4f]",
				full.IPC, samp.IPC, 100*relErr, sum.CILow, sum.CIHigh)
			if relErr > 0.05 {
				t.Errorf("sampled IPC %.4f deviates %.1f%% from full-run %.4f (budget 5%%)",
					samp.IPC, 100*relErr, full.IPC)
			}
			if !sum.CIOK {
				t.Fatalf("no confidence interval with %d intervals", sum.Intervals)
			}
			if full.IPC < sum.CILow || full.IPC > sum.CIHigh {
				t.Errorf("full-run IPC %.4f outside sampled 95%% CI [%.4f, %.4f]",
					full.IPC, sum.CILow, sum.CIHigh)
			}
		})
	}
}
