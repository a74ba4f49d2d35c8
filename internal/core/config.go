// Package core implements the cycle-level out-of-order core — the paper's
// baseline machine and, layered on it, the Criticality Driven Fetch
// mechanism (§3) and the Precise Runahead comparator (§4.1). The pipeline is
// fetch → decode → rename/allocate → issue → execute → writeback → retire,
// with a partitionable ROB/LQ/SQ, a reservation-station scheduler with port
// classes, speculative loads with store-forwarding and violation flushes,
// and oracle-driven wrong-path modelling (see DESIGN.md §3.1).
package core

import (
	"fmt"

	"cdf/internal/cdf"
	"cdf/internal/front"
	"cdf/internal/isa"
	"cdf/internal/mem"
)

// Mode selects the machine being simulated.
type Mode int

// Machine modes.
const (
	ModeBaseline Mode = iota // aggressive OoO + prefetching (the baseline)
	ModeCDF                  // baseline + Criticality Driven Fetch
	ModePRE                  // baseline + Precise Runahead
	// ModeHybrid combines CDF with runahead: the §6 future-work proposal
	// ("CDF and techniques such as Runahead provide different benefits and
	// can potentially be combined"). The CDF mechanism runs as in ModeCDF;
	// when the processor is *not* in CDF mode and takes a full-window
	// stall, the runahead engine prefetches chains as in ModePRE.
	ModeHybrid
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeCDF:
		return "cdf"
	case ModePRE:
		return "pre"
	case ModeHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode is the inverse of Mode.String, and the only mode-name parser.
func ParseMode(name string) (Mode, error) {
	for m := ModeBaseline; m <= ModeHybrid; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want baseline|cdf|pre|hybrid)", name)
}

// Config describes the simulated machine (Table 1 defaults via Default).
type Config struct {
	Mode Mode

	// Window resources.
	Width   int // fetch/rename/issue/retire width
	ROBSize int
	RSSize  int
	LQSize  int
	SQSize  int
	PRFSize int

	// Execution ports per class (indexed by isa.PortClass).
	Ports [isa.NumPortClasses]int

	// Frontend timing.
	DecodeLat       int // fetch->rename pipeline depth for I-cache uops
	CritDecodeLat   int // same for pre-decoded Critical Uop Cache uops
	RedirectPenalty int // cycles of frontend refill after a flush
	BTBMissPenalty  int // re-steer bubble for a taken branch without a target

	// Memory system.
	Mem mem.Config

	// Front configures the instruction supply behind the timed L1I
	// (perfect-L1I, FDIP, shadow-branch decoding; DESIGN.md §13). Default
	// carries front.Default(): a timed L1I with all three off.
	Front front.Config

	// CDF structures and policies (used by ModeCDF and ModePRE, and by
	// observe-only criticality marking).
	CDF cdf.Config

	// TrainCriticality runs the marking machinery (CCT + fill buffer walks)
	// even in baseline mode, observe-only, so Fig. 1's critical/non-critical
	// ROB occupancy can be measured on the baseline.
	TrainCriticality bool

	// WrongPathLoadFrac is the probability a modelled wrong-path slot is a
	// load that injects cache/DRAM traffic. Zero disables wrong-path
	// injection entirely.
	WrongPathLoadFrac float64

	// Seed drives the deterministic wrong-path address generator.
	Seed uint64

	// Run limits: the run stops at whichever is hit first (0 = unlimited).
	MaxRetired uint64
	MaxCycles  uint64

	// WarmupRetired: after this many retired uops, all statistics are
	// reset while the machine state (caches, predictors, criticality
	// structures) stays warm — the paper's warm-up-then-measure SimPoint
	// methodology. MaxRetired counts from the start, so the measured
	// region is MaxRetired - WarmupRetired uops.
	WarmupRetired uint64

	// WatchdogCycles is the forward-progress watchdog: when no uop has
	// retired for this many cycles and the stall is not a legitimate
	// full-window memory stall (ROB head load still outstanding in the
	// hierarchy), the run aborts with StopWatchdog instead of spinning to
	// MaxCycles. 0 disables the watchdog.
	WatchdogCycles uint64

	// ParanoidEvery runs CheckInvariants every N cycles during the run
	// and panics (errInternal) on a violation, so corruption is caught at
	// the cycle it happens rather than cycles later as a wedge or a bad
	// statistic. It is O(window) per check; 0 disables (the default).
	ParanoidEvery uint64

	// SlowPath disables the optimised scheduler and the event-driven idle
	// skip, running the straightforward reference cycle loop instead. The
	// two paths are bit-identical by construction (see DESIGN.md §9);
	// equivalence tests and the -slowpath CLI flag exist to prove it.
	SlowPath bool
}

// Default returns the paper's Table 1 machine: 3.2 GHz 6-wide core with a
// 352-entry ROB, 160 RS, 128 LQ, 72 SQ, TAGE, the Table 1 cache hierarchy
// with stream prefetching, and DDR4_2400R memory.
func Default() Config {
	cfg := Config{
		Mode:    ModeBaseline,
		Width:   6,
		ROBSize: 352,
		RSSize:  160,
		LQSize:  128,
		SQSize:  72,
		PRFSize: 352 + 64,

		DecodeLat:       5,
		CritDecodeLat:   2,
		RedirectPenalty: 10,
		BTBMissPenalty:  3,

		Mem:   mem.Default(),
		Front: front.Default(),
		CDF:   cdf.Default(),

		TrainCriticality:  false,
		WrongPathLoadFrac: 0.25,
		Seed:              1,

		// Two orders of magnitude beyond the worst legitimate retire gap
		// (a DRAM round trip is a few hundred cycles), yet fires ~100x
		// sooner than the MaxCycles backstop at the default run length.
		WatchdogCycles: 100_000,
	}
	cfg.Ports[isa.PortALU] = 4
	cfg.Ports[isa.PortMul] = 1
	cfg.Ports[isa.PortFP] = 2
	cfg.Ports[isa.PortLoad] = 2
	cfg.Ports[isa.PortStore] = 1
	return cfg
}

// ScaleWindow returns cfg resized to robSize with the other window
// structures scaled proportionally (the Fig. 17 scaling-study rule: "other
// core structures are scaled proportionately").
func ScaleWindow(cfg Config, robSize int) Config {
	scale := func(v int) int {
		n := v * robSize / cfg.ROBSize
		if n < 8 {
			n = 8
		}
		return n
	}
	out := cfg
	out.RSSize = scale(cfg.RSSize)
	out.LQSize = scale(cfg.LQSize)
	out.SQSize = scale(cfg.SQSize)
	out.PRFSize = scale(cfg.PRFSize)
	out.ROBSize = robSize
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("core: width must be positive")
	}
	if c.ROBSize <= 0 || c.RSSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 {
		return fmt.Errorf("core: window sizes must be positive")
	}
	if c.PRFSize <= c.ROBSize/2+int(isa.NumRegs) {
		return fmt.Errorf("core: PRF too small (%d) for ROB %d", c.PRFSize, c.ROBSize)
	}
	for cls, n := range c.Ports {
		if n <= 0 {
			return fmt.Errorf("core: no ports for class %s", isa.PortClass(cls))
		}
	}
	if c.DecodeLat <= 0 || c.CritDecodeLat <= 0 {
		return fmt.Errorf("core: pipeline depths must be positive")
	}
	if c.WrongPathLoadFrac < 0 || c.WrongPathLoadFrac > 1 {
		return fmt.Errorf("core: WrongPathLoadFrac out of [0,1]")
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if err := c.Front.Validate(); err != nil {
		return err
	}
	return c.CDF.Validate()
}
