// Package cliflags declares, once, the run flags the command-line tools
// share: run length and warmup, the sampling schedule, seed, timeout, the
// checking and reference-loop switches, and the profile outputs. Bind
// puts them on a FlagSet; after parsing, Options returns the cdf.Options
// they describe and StartProfiling starts the collectors they name. Flags
// only one tool has stay in that tool.
package cliflags

import (
	"flag"
	"time"

	"cdf"
	"cdf/internal/profiling"
	"cdf/internal/units"
)

// Run holds the values of the shared run flags.
type Run struct {
	uops, warmup                                units.Uops
	sampleInterval, sampleMeasure, sampleWarmup units.Uops
	seed                                        uint64
	timeout                                     time.Duration
	paranoid, oracle, slowPath                  bool
	cpuProfile, memProfile, execTrace           string
}

// Bind declares the shared run flags on fs and returns the values they
// parse into.
func Bind(fs *flag.FlagSet) *Run {
	r := &Run{}
	fs.Var(&r.uops, "uops", "instructions per run, e.g. 200000, 200k or 5M (0 = default)")
	fs.Var(&r.warmup, "warmup", "warm-up instructions excluded from statistics (e.g. 200k)")
	fs.Var(&r.sampleInterval, "sample-interval", "sampled simulation: sampling period in uops, e.g. 50k (0 = full runs)")
	fs.Var(&r.sampleMeasure, "sample-measure", "sampled simulation: cycle-accurate measured uops per interval (0 = interval/16)")
	fs.Var(&r.sampleWarmup, "sample-warmup", "sampled simulation: detached cycle-accurate warmup uops per interval (0 = measure/2)")
	fs.Uint64Var(&r.seed, "seed", 0, "run seed: wrong-path models and failure reports (0 = randomized)")
	fs.DurationVar(&r.timeout, "timeout", 0, "wall-clock limit per simulation run (0 = none)")
	fs.BoolVar(&r.paranoid, "paranoid", false, "run invariant checks inside every simulation (~2x slower)")
	fs.BoolVar(&r.oracle, "oracle", false, "check every retired uop against the functional emulator in lockstep")
	fs.BoolVar(&r.slowPath, "slowpath", false, "run the reference cycle loop (no scoreboard scheduler or idle skip)")
	fs.StringVar(&r.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&r.memProfile, "memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	fs.StringVar(&r.execTrace, "exectrace", "", "write a runtime execution trace to this file (go tool trace)")
	return r
}

// Options returns the run options the flags describe. Mode and the
// machine knobs the shared flags do not cover are left zero for the tool
// to fill in; a zero seed is passed through for the tool to randomize.
func (r *Run) Options() cdf.Options {
	return cdf.Options{
		MaxUops:    uint64(r.uops),
		WarmupUops: uint64(r.warmup),
		Seed:       r.seed,
		Timeout:    r.timeout,
		Paranoid:   r.paranoid,
		Oracle:     r.oracle,
		SlowPath:   r.slowPath,
		Sampling: cdf.Sampling{
			Interval: uint64(r.sampleInterval),
			Measure:  uint64(r.sampleMeasure),
			Warmup:   uint64(r.sampleWarmup),
		},
	}
}

// StartProfiling starts the collectors the profile flags name and returns
// the function that flushes them at exit.
func (r *Run) StartProfiling() (stop func(), err error) {
	return profiling.Start(r.cpuProfile, r.memProfile, r.execTrace)
}
