package main

// Replays drive the simulator's layers through their exported calls, so a
// traced run can time each layer from outside the program. Each replay is
// checked against the untraced cdf.Run result of the same case: a replay
// that stops reproducing cdf.Run's statistics fails the run instead of
// timing something else.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"strconv"
	"time"

	"cdf"
	"cdf/internal/branch"
	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/front"
	"cdf/internal/isa"
	"cdf/internal/mem"
	"cdf/internal/prog"
	"cdf/internal/stats"
	"cdf/internal/workload"
)

// simCase is one simulation: a kernel under one set of options. Label is
// unique within a workload.
type simCase struct {
	label string
	bench string
	opt   cdf.Options
}

// coreConfig mirrors how cdf.Options materializes a core.Config, for the
// option fields this benchmark sets (mode, run budget, seed, the frontend
// knobs). The replay checks catch any drift from the library's version.
func coreConfig(opt cdf.Options) core.Config {
	cfg := core.Default()
	cfg.Mode = opt.Mode
	cfg.MaxRetired = opt.MaxUops
	cfg.WarmupRetired = opt.WarmupUops
	cfg.MaxCycles = cfg.MaxRetired * 100
	if opt.Frontend {
		fc := front.Default()
		fc.PerfectL1I = opt.PerfectL1I
		fc.FDIP = opt.FDIP
		fc.ShadowBTB = opt.ShadowBTB
		cfg.Front = fc
		if opt.FDIP {
			cfg.Mem.L1IMSHRs = 16
		}
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	return cfg
}

// digestEntry is one case's complete statistics table.
type digestEntry struct {
	label   string
	metrics []cdf.Metric
}

// digest hashes every statistic of every case, in case order, with each
// value written in full precision. Two runs agree on it exactly when they
// simulated the same thing.
func digest(entries []digestEntry) string {
	h := sha256.New()
	for _, e := range entries {
		fmt.Fprintf(h, "%s\n", e.label)
		for _, m := range e.metrics {
			fmt.Fprintf(h, "%s=%s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func tableMetrics(st *stats.Stats) []cdf.Metric {
	rows := st.Table()
	out := make([]cdf.Metric, len(rows))
	for i, r := range rows {
		out[i] = cdf.Metric{Name: r.Name, Value: r.Value}
	}
	return out
}

// heapAllocs reads the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// loopStats accumulates the cycle loop's work and host time.
type loopStats struct {
	time                  time.Duration
	calls, cycles, uops   uint64
	allocs                uint64
	build, newCore, warmr []time.Duration
}

// runLoop drives c to completion one Cycle call at a time inside one span.
func (ls *loopStats) runLoop(tr *tracer, parent int, caseID string, c *core.Core) {
	a0 := heapAllocs()
	sp := tr.begin("core.Cycle", parent, caseID)
	t0 := time.Now()
	var calls uint64
	for !c.Finished() {
		c.Cycle()
		calls++
	}
	ls.time += time.Since(t0)
	tr.end(sp)
	ls.allocs += heapAllocs() - a0
	ls.calls += calls
	ls.cycles += c.Cycles()
	ls.uops += c.Retired()
}

// timed runs fn inside a span and returns its duration.
func timed(tr *tracer, name string, parent int, caseID string, fn func()) time.Duration {
	sp := tr.begin(name, parent, caseID)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(sp)
	return d
}

// replayFull runs one full (unsampled) case as Build, core.New and a bare
// Cycle loop, and returns its statistics table.
func replayFull(tr *tracer, parent int, c simCase, ls *loopStats) ([]cdf.Metric, error) {
	w, err := workload.ByName(c.bench)
	if err != nil {
		return nil, err
	}
	var prg *prog.Program
	var m *emu.Memory
	ls.build = append(ls.build, timed(tr, "workload.Build", parent, c.label, func() { prg, m = w.Build() }))
	cfg := coreConfig(c.opt)
	var cr *core.Core
	ls.newCore = append(ls.newCore, timed(tr, "core.New", parent, c.label, func() { cr, err = core.New(cfg, prg, m) }))
	if err != nil {
		return nil, err
	}
	ls.runLoop(tr, parent, c.label, cr)
	if r := cr.StopReason(); r != core.StopCompleted || cr.Retired() < cfg.MaxRetired {
		return nil, fmt.Errorf("replay of %s stopped with %v after %d/%d uops", c.label, r, cr.Retired(), cfg.MaxRetired)
	}
	return tableMetrics(cr.Stats()), nil
}

// branchRec is one emulated branch, enough to replay it through a
// predictor.
type branchRec struct {
	op           isa.Op
	pc, ret, tgt uint64
	taken        bool
}

// Caps on the streams kept for the predictor and cache replays, so a long
// run's replay stays a few tens of MB.
const (
	maxBranchRecs = 1 << 19
	maxLoadRecs   = 1 << 20
)

// funcLayers accumulates the functional layers' work and host time: the
// emulator, the functional warmer, and the streams replayed through the
// branch predictor and the cache hierarchy.
type funcLayers struct {
	step, observe     time.Duration
	stepped, observed uint64
	clones            []time.Duration
	written           int
	branches          []branchRec
	loads             []uint64
}

// keep records d for the predictor and cache replays.
func (f *funcLayers) keep(prg *prog.Program, d *emu.DynUop) {
	op := d.U.Op
	switch {
	case op.IsBranch() && len(f.branches) < maxBranchRecs:
		ret := d.PC + 8
		if ft := prg.Blocks[d.BlockID].Fallthrough; ft >= 0 {
			ret = prg.BlockPC(ft)
		}
		f.branches = append(f.branches, branchRec{op: op, pc: d.PC, ret: ret, tgt: d.NextPC, taken: d.Taken})
	case op.IsLoad() && len(f.loads) < maxLoadRecs:
		f.loads = append(f.loads, d.Addr)
	}
}

// chunk is how many uops the replays emulate before warming them: enough
// to make the per-chunk clock reads negligible, few enough that the batch
// of dynamic uops stays in cache between the two loops.
const chunk = 1024

// advance steps em to position `to`, one span per chunk; with warmer set,
// each chunk is then observed by it in a second span. Observe reads only
// the dynamic uop, never the emulator, so batching the two is the same
// computation as interleaving them uop by uop.
func (f *funcLayers) advance(tr *tracer, parent int, caseID string, prg *prog.Program, em *emu.Emulator,
	warmer *core.Warmer, to uint64, buf []emu.DynUop) error {
	for em.Executed() < to {
		n := int(min(uint64(len(buf)), to-em.Executed()))
		sp := tr.begin("emu.Step", parent, caseID)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if !em.Step(&buf[i]) {
				return fmt.Errorf("%s: program halted at uop %d", caseID, em.Executed())
			}
		}
		f.step += time.Since(t0)
		tr.end(sp)
		f.stepped += uint64(n)
		if warmer == nil {
			continue
		}
		sp = tr.begin("core.Warmer.Observe", parent, caseID)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			warmer.Observe(&buf[i])
		}
		f.observe += time.Since(t0)
		tr.end(sp)
		f.observed += uint64(n)
		for i := 0; i < n; i++ {
			f.keep(prg, &buf[i])
		}
	}
	return nil
}

// clone times one Emulator.Clone.
func (f *funcLayers) clone(tr *tracer, parent int, caseID string, em *emu.Emulator) *emu.Emulator {
	var ck *emu.Emulator
	f.clones = append(f.clones, timed(tr, "emu.Clone", parent, caseID, func() { ck = em.Clone() }))
	return ck
}

// functionalProbe emulates one kernel for uops uops with functional
// warming and clones the final state: the emulator and warming layers'
// cost on a workload that does not fast-forward itself.
func functionalProbe(tr *tracer, parent int, c simCase, f *funcLayers, ls *loopStats) error {
	w, err := workload.ByName(c.bench)
	if err != nil {
		return err
	}
	prg, m := w.Build()
	var warmer *core.Warmer
	ls.warmr = append(ls.warmr, timed(tr, "core.NewWarmer", parent, c.label, func() {
		warmer, err = core.NewWarmer(coreConfig(c.opt), prg)
	}))
	if err != nil {
		return err
	}
	em := emu.New(prg, m)
	if err := f.advance(tr, parent, c.label, prg, em, warmer, c.opt.MaxUops, make([]emu.DynUop, chunk)); err != nil {
		return err
	}
	f.clone(tr, parent, c.label, em)
	f.written += em.Mem.Footprint()
	return nil
}

// replayStreams replays the kept branch and load streams through a fresh
// predictor and a fresh cache hierarchy, and returns the host time per
// branch (Predict+Update) and per load (WarmLoad, which includes the
// stream prefetcher's training).
func (f *funcLayers) replayStreams(tr *tracer, parent int) (nsPerBranch, nsPerLoad float64) {
	if len(f.branches) > 0 {
		p := branch.NewPredictor()
		d := timed(tr, "branch.Predictor", parent, "", func() {
			for _, b := range f.branches {
				pr := p.Predict(b.op, b.pc, b.ret)
				p.Update(b.op, b.pc, b.taken, b.tgt, pr)
			}
		})
		nsPerBranch = float64(d) / float64(len(f.branches))
	}
	if len(f.loads) > 0 {
		h := mem.NewHierarchy(core.Default().Mem, &stats.Stats{})
		d := timed(tr, "mem.Hierarchy.WarmLoad", parent, "", func() {
			for _, a := range f.loads {
				h.WarmLoad(a)
			}
		})
		nsPerLoad = float64(d) / float64(len(f.loads))
	}
	return nsPerBranch, nsPerLoad
}

// report sets the functional layers' per-layer metrics.
func (f *funcLayers) report(b *bench, parent int) {
	if f.stepped > 0 {
		b.set("emu.ns_per_uop", float64(f.step)/float64(f.stepped))
	}
	if f.observed > 0 {
		b.set("warm.ns_per_uop", float64(f.observe)/float64(f.observed))
	}
	if len(f.clones) > 0 {
		b.set("emu.clone_ms_p50", durMedian(f.clones)*1e3)
		b.set("emu.clone_ms_last", f.clones[len(f.clones)-1].Seconds()*1e3)
	}
	b.set("emu.written_words", float64(f.written))
	nb, nl := f.replayStreams(b.tr, parent)
	b.set("branch.ns_per_branch", nb)
	b.set("mem.warmload_ns", nl)
}

// report sets the cycle loop's and setup's per-layer metrics.
func (ls *loopStats) report(b *bench) {
	if ls.cycles > 0 {
		b.set("core.ns_per_cycle", float64(ls.time)/float64(ls.cycles))
		b.set("core.ns_per_uop", float64(ls.time)/float64(ls.uops))
		b.set("core.cycles_per_call", float64(ls.cycles)/float64(ls.calls))
		b.set("core.allocs_per_kcycle", float64(ls.allocs)/(float64(ls.cycles)/1000))
	}
	if len(ls.build) > 0 {
		ms := make([]float64, len(ls.build))
		for i, d := range ls.build {
			ms[i] = d.Seconds() * 1e3
		}
		b.set("setup.build_ms_p50", median(ms))
		b.set("setup.build_ms_max", sorted(ms)[len(ms)-1])
	}
	if len(ls.newCore) > 0 {
		b.set("setup.core_new_ms", durMedian(ls.newCore)*1e3)
	}
	if len(ls.warmr) > 0 {
		b.set("setup.warmer_new_ms", durMedian(ls.warmr)*1e3)
	}
}
