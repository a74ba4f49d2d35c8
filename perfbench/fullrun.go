package main

// The two workloads of full cycle-accurate runs: fig13-full (the paper's
// Fig. 13 sweep) and front-supply (the instruction-supply experiment).

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/harness"
	"cdf/internal/workload"
)

// simWorkers is the simulation worker count of every workload. One worker
// keeps per-case latency free of contention between cases, and leaves the
// host's other CPU to the Go runtime, which steadies the figures on a
// small host.
const simWorkers = 1

// fig13Uops is the Fig. 13 run length: cdfexperiments' default.
const fig13Uops = cdf.DefaultMaxUops

// frontUops is the front-supply run length: long enough that per-run
// setup is a small share of each case.
const frontUops = 300_000

// frontVariants are cdf.FrontSupply's four machines, in its column order.
var frontVariants = []struct {
	name string
	set  func(*cdf.Options)
}{
	{"timing", func(o *cdf.Options) { o.Frontend = true }},
	{"fdip", func(o *cdf.Options) { o.Frontend, o.FDIP = true, true }},
	{"shadow", func(o *cdf.Options) { o.Frontend, o.FDIP, o.ShadowBTB = true, true, true }},
	{"perfect", func(o *cdf.Options) { o.Frontend, o.PerfectL1I = true, true }},
}

var fig13Modes = []cdf.Mode{cdf.ModeBaseline, cdf.ModeCDF, cdf.ModePRE}

func runFig13(b *bench) error {
	var cases []simCase
	for _, k := range cdf.Benchmarks() {
		if k.Frontend {
			continue // the Fig. 13 suite is the paper's data-side kernels
		}
		for _, m := range fig13Modes {
			cases = append(cases, simCase{label: k.Name + "/" + m.String(), bench: k.Name,
				opt: cdf.Options{Mode: m, MaxUops: fig13Uops, Seed: b.simSeed(0)}})
		}
	}
	return runFull(b, cases, 2, fig13Model)
}

func runFrontSupply(b *bench) error {
	var cases []simCase
	for _, k := range cdf.Benchmarks() {
		if !k.Frontend {
			continue
		}
		for _, v := range frontVariants {
			opt := cdf.Options{Mode: cdf.ModeBaseline, MaxUops: frontUops, Seed: b.simSeed(0)}
			v.set(&opt)
			cases = append(cases, simCase{label: k.Name + "/" + v.name, bench: k.Name, opt: opt})
		}
	}
	return runFull(b, cases, 9, frontModel)
}

// pass is one run of a workload's whole case list.
type pass struct {
	wall    time.Duration
	caseDur []time.Duration
	results []cdf.Result
	digest  string
}

// runCases runs every case through cdf.RunContext on simWorkers workers,
// the way the suite experiments do, and checks each result.
func runCases(b *bench, cases []simCase) pass {
	p := pass{caseDur: make([]time.Duration, len(cases)), results: make([]cdf.Result, len(cases))}
	errs := make([]error, len(cases))
	t0 := time.Now()
	harness.Pool(context.Background(), simWorkers, len(cases), func(ctx context.Context, i int) error {
		t := time.Now()
		p.results[i], errs[i] = cdf.RunContext(ctx, cases[i].bench, cases[i].opt)
		p.caseDur[i] = time.Since(t)
		return errs[i]
	})
	p.wall = time.Since(t0)
	entries := make([]digestEntry, len(cases))
	for i, c := range cases {
		checkResult(b, c, p.results[i], errs[i])
		entries[i] = digestEntry{c.label, p.results[i].Metrics}
	}
	p.digest = digest(entries)
	return p
}

// checkResult counts one attempted case and fails it unless it completed
// its whole budget: a full run must retire exactly its uop budget (the
// core stops at the end of the cycle that reaches it, so it may overshoot
// by less than one retire group), a sampled run must measure every
// interval of its schedule and report a confidence interval.
func checkResult(b *bench, c simCase, res cdf.Result, err error) {
	b.attempted++
	fail := func(format string, a ...any) {
		b.failed++
		b.problem("%s: %s", c.label, fmt.Sprintf(format, a...))
	}
	switch {
	case err != nil:
		fail("%v", err)
	case res.StopReason != cdf.StopCompleted:
		fail("stopped with %v", res.StopReason)
	case c.opt.Sampling.Enabled():
		want := int((c.opt.MaxUops - c.opt.WarmupUops) / c.opt.Sampling.Interval)
		switch {
		case res.Sample == nil || res.Sample.Intervals != want:
			fail("sampled run measured %v intervals, want %d", res.Sample, want)
		case !res.Sample.CIOK:
			fail("sampled run has no confidence interval")
		}
	case res.Uops < c.opt.MaxUops || res.Uops >= c.opt.MaxUops+retireWidth:
		fail("retired %d uops, budget %d", res.Uops, c.opt.MaxUops)
	}
}

// checkSameDigest fails the run when passes over the same inputs simulated
// different statistics, and keeps the first pass's digest.
func checkSameDigest(b *bench, passes []pass) {
	for i, p := range passes {
		if i == 0 {
			b.digest = p.digest
		} else if p.digest != b.digest {
			b.problem("pass %d simulated different statistics (digest %s, pass 0 %s)", i, p.digest, b.digest)
		}
	}
}

// setupCases measures the setup every run of the workload pays before its
// first cycle: building each case's kernel and constructing its core (its
// functional warmer, for sampled runs). It times the whole set at least
// setupMinSamples times and for at least setupMinTime in total, so even a
// sub-millisecond setup is sampled often enough for a steady median, and
// returns that median. Each repetition starts from a collected heap, so
// the garbage of one never lands in the next or raises the peak RSS.
func setupCases(cases []simCase) (time.Duration, error) {
	var reps []time.Duration
	var total time.Duration
	for len(reps) < setupMinSamples || total < setupMinTime {
		runtime.GC()
		t0 := time.Now()
		for _, c := range cases {
			w, err := workload.ByName(c.bench)
			if err != nil {
				return 0, err
			}
			prg, m := w.Build()
			if c.opt.Sampling.Enabled() {
				_, err = core.NewWarmer(coreConfig(c.opt), prg)
			} else {
				_, err = core.New(coreConfig(c.opt), prg, m)
			}
			if err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		reps = append(reps, d)
		total += d
	}
	return time.Duration(durMedian(reps) * float64(time.Second)), nil
}

// setupCases' sampling floor.
const (
	setupMinSamples = 11
	setupMinTime    = 100 * time.Millisecond
)

// retireWidth bounds how far past its budget a full run may retire.
var retireWidth = uint64(core.Default().Width)

func kernelsOf(cases []simCase) []string {
	seen := map[string]bool{}
	var ks []string
	for _, c := range cases {
		if !seen[c.bench] {
			seen[c.bench] = true
			ks = append(ks, c.bench)
		}
	}
	return ks
}

// runFull measures a workload of full runs. Untraced, it repeats the case
// list for the time budget and reports the end-to-end metrics. Traced, it
// alternates an untraced pass with a replayed, traced and CPU-profiled
// pass of the same cases and reports the per-layer metrics.
func runFull(b *bench, cases []simCase, minPasses int, model func(*bench, []simCase, []pass)) error {
	var passes []pass
	if !b.traced {
		setup, err := setupCases(cases)
		if err != nil {
			return err
		}
		b.repeat(minPasses, func(int) error {
			passes = append(passes, runCases(b, cases))
			return nil
		})
		checkSameDigest(b, passes)
		reportEndToEnd(b, setup, passes, nil, minPasses*len(cases))
		return nil
	}

	var (
		ls    loopStats
		prof  stageProfile
		walls []time.Duration
	)
	err := b.repeat(1, func(int) error {
		passes = append(passes, runCases(b, cases))
		root := b.tr.begin("pass", 0, "")
		t0 := time.Now()
		entries := make([]digestEntry, len(cases))
		for i, c := range cases {
			sp := b.tr.begin("case", root, c.label)
			m, err := replayFull(b.tr, sp, c, &ls)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			entries[i] = digestEntry{c.label, m}
		}
		walls = append(walls, time.Since(t0))
		b.tr.end(root)
		if d := digest(entries); d != passes[len(passes)-1].digest {
			b.problem("replay does not reproduce cdf.Run (digest %s, cdf.Run %s)", d, passes[len(passes)-1].digest)
		}
		return profiledPass(b, cases, &prof, passes[len(passes)-1].digest)
	})
	if err != nil {
		return err
	}
	checkSameDigest(b, passes)
	replay := durSum(ls.build) + durSum(ls.newCore) + ls.time
	var runTime time.Duration
	for _, p := range passes {
		runTime += durSum(p.caseDur)
	}
	b.set("harness.overhead_frac", float64(runTime)/float64(replay)-1)
	reportTraceOverhead(b, passes, walls)

	probeRoot := b.tr.begin("probe", 0, "")
	if err := probeLayers(b, probeRoot, cases, passes[0].results, &ls); err != nil {
		return err
	}
	b.tr.end(probeRoot)
	ls.report(b)
	prof.report(b)
	modelMetrics(b, passes[0].results)
	model(b, cases, passes)
	return nil
}

// probeLayers probes the functional layers once per kernel of the cases,
// and the store with the cases' results.
func probeLayers(b *bench, parent int, cases []simCase, results []cdf.Result, ls *loopStats) error {
	var f funcLayers
	seen := map[string]bool{}
	for _, c := range cases {
		if !seen[c.bench] {
			seen[c.bench] = true
			if err := functionalProbe(b.tr, parent, c, &f, ls); err != nil {
				return err
			}
		}
	}
	f.report(b, parent)
	return storeProbe(b, parent, cases, results)
}

// profiledPass runs the cases through cdf.RunContext once more under a CPU
// profile, for the cycle-loop stage shares. It is a pass of its own so the
// profiler's cost and allocations stay out of the timed and traced passes.
func profiledPass(b *bench, cases []simCase, prof *stageProfile, want string) error {
	if err := prof.start(); err != nil {
		return err
	}
	p := runCases(b, cases)
	if err := prof.stop(cases[0].bench); err != nil {
		return err
	}
	if p.digest != want {
		b.problem("profiled pass simulated different statistics (digest %s, want %s)", p.digest, want)
	}
	return nil
}

// reportEndToEnd sets the end-to-end metrics of a run of passes. covered
// is the program uops each pass covered, when that differs from what it
// simulated cycle-accurately (sampled runs).
func reportEndToEnd(b *bench, setup time.Duration, passes []pass, covered func(pass) uint64, nMin int) {
	var walls, durs []time.Duration
	var sim, cov uint64
	for _, p := range passes {
		walls = append(walls, p.wall)
		durs = append(durs, p.caseDur...)
		for _, r := range p.results {
			sim += r.Uops
			if r.Sample != nil {
				sim += r.Sample.WarmupUops
			}
		}
		if covered != nil {
			cov += covered(p)
		}
	}
	if covered == nil {
		cov = sim
	}
	total := durSum(walls).Seconds()
	lat := summarizeLatency(durs, nMin)
	b.set("setup_s", setup.Seconds())
	b.set("wall_s", durMedian(walls))
	b.set("sim_uops_per_s", float64(sim)/total)
	b.set("covered_uops_per_s", float64(cov)/total)
	b.set("case_p50_ms", lat.p50)
	b.set("case_tail_ms", lat.tail)
	b.set("peak_rss_mb", peakRSSMB())
	b.note("passes: %d, pass wall median %.3f s; per-case latency %s", len(passes), durMedian(walls), lat)
}

// reportTraceOverhead compares traced with untraced pass walls.
func reportTraceOverhead(b *bench, passes []pass, traced []time.Duration) {
	var untraced []time.Duration
	for _, p := range passes {
		untraced = append(untraced, p.wall)
	}
	u, t := durMedian(untraced), durMedian(traced)
	b.set("trace.overhead_s", t-u)
	b.set("trace.overhead_frac", (t-u)/u)
	b.note("tracing overhead: traced pass %.3f s vs untraced %.3f s (median of %d each)", t, u, len(traced))
}

// modelMetrics sets the simulated (deterministic) statistics over a
// pass's results: rates pooled over all cases, IPC and MLP as geomeans.
func modelMetrics(b *bench, rs []cdf.Result) {
	var sum = map[string]float64{}
	var logIPC, logMLP float64
	var nMLP int
	for _, r := range rs {
		for _, m := range r.Metrics {
			sum[m.Name] += m.Value
		}
		logIPC += math.Log(r.IPC)
		if r.MLP > 0 {
			logMLP += math.Log(r.MLP)
			nMLP++
		}
	}
	ratio := func(a, b string) float64 {
		if sum[b] == 0 {
			return 0
		}
		return sum[a] / sum[b]
	}
	perKuop := func(a string) float64 { return 1000 * ratio(a, "retired_uops") }
	b.set("model.ipc", math.Exp(logIPC/float64(len(rs))))
	if nMLP > 0 {
		b.set("model.mlp", math.Exp(logMLP/float64(nMLP)))
	}
	b.set("model.llc_mpki", perKuop("llc_misses"))
	b.set("model.branch_mpki", perKuop("branch_mispredicts"))
	b.set("model.full_window_stall_frac", ratio("full_window_stall_cycles", "cycles"))
	b.set("model.cdf_mode_frac", ratio("cdf_mode_cycles", "cycles"))
	b.set("model.dependence_violations", sum["dependence_violations"])
	b.set("model.prefetch_accuracy", ratio("prefetches_useful", "prefetches_issued"))
	b.set("model.l1i_mpki", perKuop("l1i_misses"))
	b.set("model.fetch_stall_imiss_per_kuop", perKuop("fetch_stall_imiss"))
	b.set("model.fetch_stall_btb_per_kuop", perKuop("fetch_stall_btb"))
	b.set("model.fetch_stall_redirect_per_kuop", perKuop("fetch_stall_redirect"))
	b.set("model.l1i_prefetch_accuracy", ratio("l1i_prefetch_useful", "l1i_prefetches"))
	b.set("model.l1i_prefetch_late_frac", ratio("l1i_prefetch_late", "l1i_prefetches"))
	b.set("model.shadow_btb_hit_rate", ratio("shadow_btb_hits", "btb_misses"))
	b.set("model.ftq_avg_occupancy", sum["ftq_avg_occupancy"]/float64(len(rs)))
}

// fig13Model adds the Fig. 13 geomean speedups, beside the paper's.
func fig13Model(b *bench, cases []simCase, passes []pass) {
	rs := passes[0].results
	ipc := map[string]float64{}
	for i, c := range cases {
		ipc[c.label] = rs[i].IPC
	}
	var rows []cdf.Fig13Row
	for _, k := range kernelsOf(cases) {
		base := ipc[k+"/"+cdf.ModeBaseline.String()]
		rows = append(rows, cdf.Fig13Row{Benchmark: k,
			CDFSpeedup: ipc[k+"/"+cdf.ModeCDF.String()] / base,
			PRESpeedup: ipc[k+"/"+cdf.ModePRE.String()] / base})
	}
	cg, pg, err := cdf.Fig13Geomean(rows)
	if err != nil {
		b.problem("fig13 geomean: %v", err)
		return
	}
	b.set("model.cdf_geomean_pct", (cg-1)*100)
	b.set("model.pre_geomean_pct", (pg-1)*100)
	b.note("Fig. 13 geomean: CDF %+.2f%% (paper +6.1%%), PRE %+.2f%% (paper +2.6%%); synthetic kernels, so this is the model's distance from the paper, not a validated error",
		(cg-1)*100, (pg-1)*100)
}

// frontModel adds host time per simulated uop for each frontend variant,
// from the untraced passes' cdf.Run times.
func frontModel(b *bench, cases []simCase, passes []pass) {
	for _, v := range frontVariants {
		var t time.Duration
		var uops uint64
		for _, p := range passes {
			for i, c := range cases {
				if strings.HasSuffix(c.label, "/"+v.name) {
					t += p.caseDur[i]
					uops += p.results[i].Uops
				}
			}
		}
		b.set("front."+v.name+".ns_per_uop", float64(t)/float64(uops))
	}
}
