package main

// sampled-long: long sampled runs in cdf mode on lbm (streaming stores, so
// the emulator's written footprint grows all run) and astar (read-mostly,
// branchy, small footprint).

import (
	"fmt"
	"time"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/prog"
	"cdf/internal/stats"
	"cdf/internal/workload"
)

// sampledUops is each sampled run's program length.
const sampledUops = 10_000_000

// sampledSchedule is the sparse schedule sampled simulation was
// benchmarked with when it landed (3% duty).
var sampledSchedule = cdf.Sampling{Interval: 200_000, Measure: 4_000, Warmup: 2_000}

func runSampledLong(b *bench) error {
	var cases []simCase
	for _, k := range sampledKernels {
		cases = append(cases, simCase{label: k + "/cdf", bench: k,
			opt: cdf.Options{Mode: cdf.ModeCDF, MaxUops: sampledUops, Seed: b.simSeed(0), Sampling: sampledSchedule}})
	}
	var passes []pass
	if !b.traced {
		setup, err := setupCases(cases)
		if err != nil {
			return err
		}
		b.repeat(1, func(int) error {
			passes = append(passes, runCases(b, cases))
			return nil
		})
		checkSameDigest(b, passes)
		reportEndToEnd(b, setup, passes, coveredUops, len(cases))
		return nil
	}

	var (
		ls    loopStats
		f     funcLayers
		prof  stageProfile
		walls []time.Duration
		reps  = make([][]sampledReplay, len(cases))
	)
	err := b.repeat(1, func(int) error {
		p := runCases(b, cases)
		passes = append(passes, p)
		root := b.tr.begin("pass", 0, "")
		t0 := time.Now()
		for i, c := range cases {
			sp := b.tr.begin("case", root, c.label)
			r, err := replaySampled(b.tr, sp, c, &ls, &f)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			if d, want := digest([]digestEntry{{c.label, tableMetrics(&r.total)}}),
				digest([]digestEntry{{c.label, p.results[i].Metrics}}); d != want {
				b.problem("%s: replay does not reproduce cdf.Run (digest %s, cdf.Run %s)", c.label, d, want)
			}
			reps[i] = append(reps[i], r)
		}
		walls = append(walls, time.Since(t0))
		b.tr.end(root)
		// One profile per kernel, to set each kernel's Clone share from
		// the profile beside the one its spans give.
		for i, c := range cases {
			want := digest([]digestEntry{{c.label, p.results[i].Metrics}})
			if err := profiledPass(b, cases[i:i+1], &prof, want); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	checkSameDigest(b, passes)
	var runTime, replayTime time.Duration
	for i, c := range cases {
		var runs []time.Duration
		for _, p := range passes {
			runs = append(runs, p.caseDur[i])
		}
		runTime += durSum(runs)
		var r sampledReplay
		for _, x := range reps[i] {
			replayTime += x.wall
			r.add(x)
		}
		n := float64(len(reps[i]))
		pre := "sample." + c.bench + "."
		b.set(pre+"ff_share", r.ff.Seconds()/r.wall.Seconds())
		b.set(pre+"clone_share", durSum(r.clones).Seconds()/r.wall.Seconds())
		b.set(pre+"interval_share", r.interval.Seconds()/r.wall.Seconds())
		b.set(pre+"intervals", float64(r.intervals)/n)
		b.set(pre+"clone_ms_p50", durMedian(r.clones)*1e3)
		b.set(pre+"clone_ms_last", r.clones[len(r.clones)-1].Seconds()*1e3)
		b.set(pre+"written_words", float64(r.written)/n)
		accounted := r.ff + durSum(r.clones) + r.interval + r.setup
		b.set(pre+"unaccounted_frac", 1-accounted.Seconds()/durSum(runs).Seconds())
		cl := prof.clone[c.bench]
		b.note("%s: Emulator.Clone is on the stack in %.0f%% of the profiled run's %d CPU samples",
			c.label, 100*float64(cl[0])/float64(max(cl[1], 1)), cl[1])
		res := passes[0].results[i]
		b.set(pre+"ipc_ci_halfwidth_pct", (res.Sample.CIHigh-res.Sample.CILow)/2/res.IPC*100)
		b.note("%s: %d intervals; replay %.2f s: fast-forward %.0f%%, Clone %.0f%% (%d clones, p50 %.2f ms, last %.2f ms), intervals %.0f%%; %d words written; IPC %.4f, 95%% CI [%.4f, %.4f]",
			c.label, r.intervals/len(reps[i]), r.wall.Seconds()/n, 100*r.ff.Seconds()/r.wall.Seconds(),
			100*durSum(r.clones).Seconds()/r.wall.Seconds(), len(r.clones), durMedian(r.clones)*1e3,
			r.clones[len(r.clones)-1].Seconds()*1e3, 100*r.interval.Seconds()/r.wall.Seconds(), r.written/len(reps[i]),
			res.IPC, res.Sample.CILow, res.Sample.CIHigh)
	}
	b.set("harness.overhead_frac", runTime.Seconds()/replayTime.Seconds()-1)
	reportTraceOverhead(b, passes, walls)
	probeRoot := b.tr.begin("probe", 0, "")
	f.report(b, probeRoot)
	if err := storeProbe(b, probeRoot, cases, passes[0].results); err != nil {
		return err
	}
	b.tr.end(probeRoot)
	ls.report(b)
	prof.report(b)
	modelMetrics(b, passes[0].results)
	return nil
}

// coveredUops is the program uops a pass of sampled runs covered:
// fast-forwarded, detached warmup and measured.
func coveredUops(p pass) uint64 {
	var n uint64
	for _, r := range p.results {
		if r.Sample != nil {
			n += r.Sample.MeasuredUops + r.Sample.WarmupUops + r.Sample.SkippedUops
		}
	}
	return n
}

// sampledReplay is what one replayed sampled run measured.
type sampledReplay struct {
	wall      time.Duration // the whole replay
	setup     time.Duration // Build and NewWarmer
	ff        time.Duration // emu.Step and Warmer.Observe, fast-forward and catch-up
	interval  time.Duration // NewAt and the interval cores' Cycle loops
	clones    []time.Duration
	total     stats.Stats // merged measured-interval statistics
	written   int         // final emulator memory footprint, in words
	intervals int
}

func (r *sampledReplay) add(o sampledReplay) {
	r.wall += o.wall
	r.setup += o.setup
	r.ff += o.ff
	r.interval += o.interval
	r.clones = append(r.clones, o.clones...)
	r.written += o.written
	r.intervals += o.intervals
}

// blockOffset mirrors where cdf's sampler places the k-th measured block
// inside its interval; the replay's digest check catches any drift.
func blockOffset(s cdf.Sampling, seed, k uint64) uint64 {
	span := s.Interval - s.Warmup - s.Measure
	if span == 0 {
		return 0
	}
	return emu.SplitMix64(seed+k*0x9E3779B97F4A7C15) % (span + 1)
}

// replaySampled re-runs one sampled run's schedule through the exported
// calls the sampler makes: the master emulator fast-forwards with
// functional warming, each interval clones it, builds an interval core
// with NewAt and cycles it to completion, and the master catches up over
// the measured region without warming.
func replaySampled(tr *tracer, parent int, c simCase, ls *loopStats, f *funcLayers) (sampledReplay, error) {
	var r sampledReplay
	t0 := time.Now()
	w, err := workload.ByName(c.bench)
	if err != nil {
		return r, err
	}
	var prg *prog.Program
	var m *emu.Memory
	d := timed(tr, "workload.Build", parent, c.label, func() { prg, m = w.Build() })
	ls.build = append(ls.build, d)
	cfg := coreConfig(c.opt)
	samp := c.opt.Sampling
	icfg := cfg
	icfg.MaxRetired = samp.Warmup + samp.Measure
	icfg.WarmupRetired = samp.Warmup
	icfg.MaxCycles = icfg.MaxRetired * 100
	var warmer *core.Warmer
	dw := timed(tr, "core.NewWarmer", parent, c.label, func() { warmer, err = core.NewWarmer(icfg, prg) })
	if err != nil {
		return r, err
	}
	ls.warmr = append(ls.warmr, dw)
	r.setup = d + dw

	master := emu.New(prg, m)
	base, end, seed := c.opt.WarmupUops, cfg.MaxRetired, cfg.Seed
	next := base + blockOffset(samp, seed, 0)
	buf := make([]emu.DynUop, chunk)
	for k := uint64(0); ; {
		s0 := f.step + f.observe
		if err := f.advance(tr, parent, c.label, prg, master, warmer, next, buf); err != nil {
			return r, err
		}
		r.ff += f.step + f.observe - s0

		ck := f.clone(tr, parent, c.label, master)
		r.clones = append(r.clones, f.clones[len(f.clones)-1])
		ck.ResetSeq()
		var ic *core.Core
		dn := timed(tr, "core.NewAt", parent, c.label, func() { ic, err = core.NewAt(icfg, prg, ck, warmer) })
		if err != nil {
			return r, err
		}
		ls.newCore = append(ls.newCore, dn)
		l0 := ls.time
		ls.runLoop(tr, parent, c.label, ic)
		r.interval += dn + ls.time - l0
		if rs := ic.StopReason(); rs != core.StopCompleted || ic.Retired() < icfg.MaxRetired {
			return r, fmt.Errorf("%s: interval %d stopped with %v after %d uops", c.label, k, rs, ic.Retired())
		}
		st := ic.Stats()
		r.total.Merge(st)
		r.intervals++
		if st.BranchMispredicts >= 4 {
			warmer.SetWrongPathRate(float64(st.WrongPathLoads) / float64(st.BranchMispredicts))
		}
		warmer.Resync(ic)
		catchup := next + ic.FetchFrontier()
		k++
		if base+(k+1)*samp.Interval > end {
			break
		}
		next = base + k*samp.Interval + blockOffset(samp, seed, k)
		s0 = f.step
		if err := f.advance(tr, parent, c.label, prg, master, nil, catchup, buf); err != nil {
			return r, err
		}
		r.ff += f.step - s0
	}
	r.written = master.Mem.Footprint()
	f.written += r.written
	r.wall = time.Since(t0)
	return r, nil
}
