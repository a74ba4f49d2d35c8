package core

import (
	"fmt"

	"cdf/internal/branch"
	"cdf/internal/cdf"
	"cdf/internal/emu"
	"cdf/internal/front"
	"cdf/internal/mem"
	"cdf/internal/prog"
	"cdf/internal/stats"
)

// Warmer is the functional-warmup layer of sampled simulation (DESIGN.md
// §12). It owns the long-lived microarchitectural structures — memory
// hierarchy, branch predictor, and the CDF criticality machinery — and
// trains them from the master emulator's DynUop history while the program
// fast-forwards between measured intervals. At each checkpoint the
// structures are handed to a fresh interval core (NewAt), which continues
// training them cycle-accurately; the handoff is strictly serial, so a
// single set of structures threads through the whole sampled run exactly as
// it would through a full one.
//
// Warming is timing-free by construction: cache contents, replacement
// state, prefetcher training, predictor state and criticality counters all
// advance, but MSHRs, DRAM schedules and the fill-buffer walk latency are
// untouched (NewAt resets the former; the latter is approximated by
// uop-count epochs, since the walk's cycle cost only matters inside a
// measured interval).
type Warmer struct {
	cfg Config
	cc  cdf.Config // cfg.effectiveCDF(), what fb was built with
	prg *prog.Program

	hier *mem.Hierarchy
	pred *branch.Predictor

	loadCCT   *cdf.CountTable
	branchCCT *cdf.CountTable
	maskc     *cdf.MaskCache
	cuc       *cdf.UopCache
	fb        *cdf.FillBuffer

	// Instruction-supply structures (nil unless the subsystem and the
	// relevant feature are enabled). Like the predictor, they persist
	// across sampled intervals: the shadow BTB keeps its decoded targets
	// and the throttle its cycle-accurately chosen degree. Warming decodes
	// shadow branches from each distinct fetched line (mirroring the timed
	// path, minus the one-cycle delay timing cannot matter for) but issues
	// no prefetches, so the throttle's counters stay frozen by construction.
	frontShadow *front.ShadowBTB
	frontDec    *front.Decoder
	frontThr    *front.Throttle

	n uint64 // uops observed

	// pos is the absolute program position (in executed uops) of the
	// warmer's clock. Unlike n it survives handoffs: Resync pulls it
	// forward past each measured region, so the epoch cycles below — mask
	// decay every MaskResetInterval, fill-buffer walks every WalkInterval —
	// fire at the same program positions a continuous run fires them at.
	// lastMaskRst and lastEpochAt are on this clock.
	pos uint64

	lastILine   uint64
	haveILine   bool
	lastMaskRst uint64
	lastEpochAt uint64
	collecting  bool

	// Wrong-path surrogate state (see warmWrongPath).
	rng         uint64
	recentLines [64]uint64
	recentN     int
	wpRate      float64 // wrong-path loads replayed per mispredict episode
	wpCarry     float64 // fractional-load accumulator across episodes
}

// NewWarmer builds the warm structure set for cfg and p. The same
// constructor backs New (cold cores adopt a fresh warmer), so a warmed and
// a cold core are guaranteed to be built from identical structures.
func NewWarmer(cfg Config, p *prog.Program) (*Warmer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cc := cfg.effectiveCDF()
	w := &Warmer{
		cfg:    cfg,
		cc:     cc,
		prg:    p,
		hier:   mem.NewHierarchy(cfg.Mem, &stats.Stats{}),
		pred:   branch.NewPredictor(),
		rng:    cfg.Seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
		wpRate: float64(wpMissBudgetPerEpisode),
	}
	w.loadCCT = cdf.NewCountTable(cc.CCTEntries, cc.CCTWays,
		cc.LoadStrictMax, cc.LoadStrictThresh, cc.LoadPermMax, cc.LoadPermThresh, 1)
	w.branchCCT = cdf.NewCountTable(cc.CCTEntries, cc.CCTWays,
		cc.BranchStrictMax, cc.BranchStrictThresh, cc.BranchPermMax, cc.BranchPermThresh,
		cc.BranchMispredictWeight)
	w.maskc = cdf.NewMaskCache(cc.MaskEntries, cc.MaskWays)
	w.cuc = cdf.NewUopCache(cc.CUCLines, cc.CUCWays, cc.CUCLineUops)
	w.fb = cdf.NewFillBuffer(cc, w.maskc, w.cuc)
	if cfg.Front.ShadowBTB {
		w.frontShadow = front.NewShadowBTB(cfg.Front)
		w.frontDec = front.NewDecoder(p, cfg.Mem.LineBytes)
	}
	if cfg.Front.FDIP {
		w.frontThr = front.NewThrottle(cfg.Front)
	}
	return w, nil
}

// compatible checks that a core built with cfg for p may adopt w's
// structures. Run limits, the watchdog, paranoia and the scheduler variant
// are per-core and may differ; everything that shapes the structures or
// their training must match.
func (w *Warmer) compatible(cfg Config, p *prog.Program) error {
	if w.prg != p {
		return fmt.Errorf("core: warmer was built for program %q, core for %q", w.prg.Name, p.Name)
	}
	a, b := w.cfg, cfg
	a.MaxRetired, b.MaxRetired = 0, 0
	a.MaxCycles, b.MaxCycles = 0, 0
	a.WarmupRetired, b.WarmupRetired = 0, 0
	a.WatchdogCycles, b.WatchdogCycles = 0, 0
	a.ParanoidEvery, b.ParanoidEvery = 0, 0
	a.SlowPath, b.SlowPath = false, false
	if a != b {
		return fmt.Errorf("core: warmer config does not structurally match core config")
	}
	return nil
}

// Observe trains every warm structure with one executed uop. The sampled
// driver calls it for each master-emulator step during fast-forward (and
// not during catch-up over a measured region, which the interval core has
// already trained cycle-accurately).
func (w *Warmer) Observe(d *emu.DynUop) {
	w.n++
	w.pos++

	// I-side: like the fetch engine, one cache touch per distinct line.
	line := w.hier.L1I.LineAddr(d.PC)
	if !w.haveILine || line != w.lastILine {
		w.hier.WarmInst(d.PC)
		if w.frontShadow != nil {
			for _, sb := range w.frontDec.Line(line) {
				w.frontShadow.Insert(sb)
			}
		}
		w.lastILine, w.haveILine = line, true
	}

	// D-side.
	llcMiss := false
	op := d.U.Op
	switch {
	case op.IsLoad():
		llcMiss = w.hier.WarmLoad(d.Addr)
		w.recentLines[w.recentN%len(w.recentLines)] = d.Addr / w.cfg.Mem.LineBytes
		w.recentN++
	case op.IsStore():
		w.hier.WarmStore(d.Addr)
	}

	// Branch predictor: predict then train, computing the mispredict the
	// same way the frontend does (predictAndCheck) — a BTB miss with the
	// right direction is a re-steer, not a mispredict.
	mispredict := false
	if op.IsBranch() {
		pr := w.pred.Predict(op, d.PC, w.retContinuationPC(d))
		w.pred.Update(op, d.PC, d.Taken, d.NextPC, pr)
		if pr.Taken != d.Taken {
			mispredict = true
		} else if d.Taken && pr.TargetHit && pr.Target != d.NextPC {
			mispredict = true
		}
	}
	if mispredict {
		w.warmWrongPath()
	}

	w.train(d, llcMiss, mispredict)
}

// warmWrongPath replays one misprediction's worth of modelled wrong-path
// memory traffic against the warm hierarchy. The core's wrong-path engine
// (emitWrongPath) issues loads at synthesized near-path addresses while a
// mispredicted branch resolves: most target a recently loaded line, and up
// to wpMissBudgetPerEpisode per episode land a bounded distance around one
// — a scattershot that pre-fills the region the demand stream is moving
// into. Skipping that traffic during warming leaves measured intervals a
// hierarchy several times colder than the run they stand in for; replaying
// a fixed amount overshoots just as badly, because episode length is pure
// timing — loads flow until the branch resolves, so memory-bound kernels
// emit 30+ loads per episode and branchy low-latency ones fewer than two.
// The rate is therefore adopted from measurement: each cycle-accurate
// interval reports its observed loads-per-mispredict (SetWrongPathRate)
// and fast-forward replays that density, with a fractional carry so
// non-integer rates hold in expectation. Draws come from the warmer's own
// deterministic generator: the goal is the same fill density, not the
// core's exact address sequence (which is timing-dependent anyway).
func (w *Warmer) warmWrongPath() {
	if w.cfg.WrongPathLoadFrac == 0 {
		return
	}
	n := w.recentN
	if n > len(w.recentLines) {
		n = len(w.recentLines)
	}
	if n == 0 {
		return
	}
	w.wpCarry += w.wpRate
	loads := int(w.wpCarry)
	w.wpCarry -= float64(loads)
	miss := wpMissBudgetPerEpisode
	for i := 0; i < loads; i++ {
		w.rng ^= w.rng << 13
		w.rng ^= w.rng >> 7
		w.rng ^= w.rng << 17
		base := w.recentLines[w.rng%uint64(n)]
		line := int64(base)
		if miss > 0 && w.rng&3 == 0 {
			// Missy draw: same offset distribution as synthWrongPathAddr.
			miss--
			off := int64(w.rng>>32)%4097 - 2048
			if line+off >= 0 {
				line += off
			}
		}
		w.hier.WarmWrongLoad(uint64(line) * w.cfg.Mem.LineBytes)
	}
}

// wpRateMax bounds the adopted wrong-path replay rate; beyond this an
// estimate says more about a degenerate interval (a handful of mispredicts
// against a long stall) than about sustainable episode length.
const wpRateMax = 256

// SetWrongPathRate adopts a measured wrong-path-loads-per-mispredict rate
// from a cycle-accurate interval. Like the frozen FDP degree, this carries
// the last timing-observed value across fast-forward, where episode length
// cannot be known. Callers should skip intervals with too few mispredicts
// to estimate a rate.
func (w *Warmer) SetWrongPathRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > wpRateMax {
		rate = wpRateMax
	}
	w.wpRate = rate
}

// retContinuationPC mirrors Core.retContinuationPC for the warm predictor.
func (w *Warmer) retContinuationPC(d *emu.DynUop) uint64 {
	blk := w.prg.Blocks[d.BlockID]
	if blk.Fallthrough >= 0 {
		return w.prg.BlockPC(blk.Fallthrough)
	}
	return d.PC + 8
}

// train is the clock-free mirror of Core.trainCriticality: CCT updates,
// mask-cache decay, and fill-buffer collection epochs measured in observed
// uops instead of retired uops, with the walk's machinery-busy window
// dropped (it only shapes timing, which warming does not model). PRE's
// stall-driven load marking cannot be observed functionally; LLC misses —
// the dominant cause of full-window stalls — stand in for it.
func (w *Warmer) train(d *emu.DynUop, llcMiss, mispredict bool) {
	if w.cfg.Mode == ModeBaseline && !w.cfg.TrainCriticality {
		return
	}
	op := d.U.Op
	if w.cfg.Mode != ModePRE {
		if op.IsLoad() {
			w.loadCCT.Update(d.PC, llcMiss)
		}
		if op.IsCondBranch() && w.cc.MarkCriticalBranches {
			w.branchCCT.Update(d.PC, mispredict)
		}
	} else if op.IsLoad() && llcMiss {
		w.loadCCT.Update(d.PC, true)
	}

	if w.pos-w.lastMaskRst >= w.cc.MaskResetInterval {
		w.maskc.Reset()
		w.lastMaskRst = w.pos
	}

	if !w.collecting {
		if w.pos-w.lastEpochAt < w.cc.WalkInterval {
			return
		}
		w.collecting = true
	}

	blk := w.prg.Blocks[d.BlockID]
	rec := cdf.Record{
		PC:           d.PC,
		BlockPC:      w.prg.BlockPC(d.BlockID),
		Index:        d.Index,
		BlockLen:     len(blk.Uops),
		EndsInBranch: blk.EndsInBranch(),
		Op:           op,
		Dst:          d.U.Dst,
		Src1:         d.U.Src1,
		Src2:         d.U.Src2,
	}
	if op.IsMem() {
		rec.MemLine = d.Addr / w.cfg.Mem.LineBytes
	}
	switch {
	case op.IsLoad():
		rec.Seed = w.loadCCT.Predict(d.PC)
	case op.IsCondBranch() && w.cc.MarkCriticalBranches && w.cfg.Mode != ModePRE:
		rec.Seed = w.branchCCT.Predict(d.PC)
	}
	w.fb.Insert(rec)

	if !w.fb.Full() {
		return
	}
	res := w.fb.Walk()
	w.collecting = false
	w.lastEpochAt = w.pos
	switch {
	case res.Density < w.cc.DensityLo:
		w.loadCCT.UsePermissive(true)
		w.branchCCT.UsePermissive(true)
	case res.Density > w.cc.DensityHi:
		w.loadCCT.UsePermissive(false)
		w.branchCCT.UsePermissive(false)
	}
}

// Resync realigns the warmer's bookkeeping after interval core c has run
// on the shared structures. The warmer's clock jumps to the position
// warming resumes at (the core's fetch frontier — the master re-executes
// that span silently), and the epoch anchors are taken from the core,
// whose clock ran on the same absolute positions: a mask reset that fired
// inside the measured region stays fired, and one that is due shortly
// after it fires on time instead of being rescheduled a full interval out.
// Any partial fill-buffer collection the core left behind is dropped.
func (w *Warmer) Resync(c *Core) {
	w.fb.Reset()
	w.collecting = false
	w.pos = c.posBase + c.FetchFrontier()
	w.lastMaskRst = c.posBase + c.lastMaskRst
	w.lastEpochAt = c.posBase + c.lastEpochAt
	w.haveILine = false
}

// Observed returns the number of uops the warmer has observed.
func (w *Warmer) Observed() uint64 { return w.n }
