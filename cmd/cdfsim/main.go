// Command cdfsim runs one benchmark on one machine configuration and prints
// the full statistics table.
//
// Usage:
//
//	cdfsim -bench astar -mode cdf -uops 200000
//	cdfsim -bench mcf -timeout 2m -paranoid
//	cdfsim -bench lbm -oracle              # lockstep differential checking
//	cdfsim -repro repro/repro-divergence-seed7.json
//	cdfsim -cache-dir .sweep               # serve/record in the result cache
//	cdfsim -worker                         # sweep-service worker (see cdfsweepd)
//	cdfsim -bench astar -trace 200         # first pipeline events of the run
//	cdfsim -bench astar -disasm            # the kernel's static program
//	cdfsim -bench astar -mode cdf -uops 60k -dump 64 -dump-skip 20k
//	cdfsim -list
//	cdfsim -print-config
//
// A run that fails — panic, watchdog-detected deadlock, -timeout, or an
// -oracle divergence — exits non-zero and prints the machine-state snapshot
// captured at the failure. Every run prints its seed, so any failure can be
// replayed exactly with -seed. Invalid flag combinations exit 2.
//
// With -cache-dir the run goes through the same content-addressed result
// cache the sweep tool uses: a prior result for the exact same (benchmark,
// configuration, code version) is served after integrity verification
// instead of re-simulating, and a fresh result is persisted for later
// runs. The header line says which happened.
//
// -trace and -dump simulate the machine a plain run would, printing
// pipeline events or (after the run) uops starred by its Critical Uop
// Cache instead of statistics; both need one full core, so no sampling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cdf"
	"cdf/internal/cliflags"
	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/harness"
	"cdf/internal/oracle"
	"cdf/internal/sweepd"
	"cdf/internal/sweepstore"
	"cdf/internal/units"
	"cdf/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status so deferred
// cleanup (the profile flush) runs on every path: 0 on success, 1 for a
// failed run, 2 for invalid flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench = fs.String("bench", "astar", "benchmark kernel to run (see -list)")
		mode  = fs.String("mode", "baseline", "machine: baseline | cdf | pre | hybrid")
		rob   = fs.Int("rob", 0, "ROB size override (0 = Table 1's 352; other structures scale)")
		noBr  = fs.Bool("no-critical-branches", false, "disable hard-to-predict branch marking (ablation)")

		perfectL1I = fs.Bool("perfect-l1i", false, "frontend upper bound: every instruction fetch hits")
		fdip       = fs.Bool("fdip", false, "decoupled fetch-directed L1I prefetcher")
		shadowBTB  = fs.Bool("shadow-btb", false, "shadow-branch decoding into a shadow BTB")
		list       = fs.Bool("list", false, "list benchmarks and exit")
		prtCfg     = fs.Bool("print-config", false, "print the Table 1 configuration and exit")
		traceN     = fs.Int("trace", 0, "print the first N pipeline trace events and exit")
		disasm     = fs.Bool("disasm", false, "print the kernel's static program and exit")
		dumpN      = fs.Int("dump", 0, "after the run, print N dynamic uops with the Critical Uop Cache's marks (-mode cdf|hybrid)")

		cacheDir = fs.String("cache-dir", "", "content-addressed result cache: serve a verified prior result, else simulate and record")
		repro    = fs.String("repro", "", "replay a repro artifact written by the failure minimizer, then exit")

		workerMode = fs.Bool("worker", false, "sweep-service worker mode: serve case requests on stdin/stdout (see cdfsweepd)")
		workerHB   = fs.Duration("worker-hb", 0, "worker heartbeat period (0 = default); only with -worker")
		chaosSpec  = fs.String("chaos", "", "deterministic fault injection in -worker mode, e.g. seed=1,workerkill=0.2,hbstall=0.1")
	)
	var dumpSkip units.Uops
	fs.Var(&dumpSkip, "dump-skip", "dynamic uops to skip before -dump starts printing, e.g. 20k")
	shared := cliflags.Bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cdfsim: "+format+"\n", a...)
		return 2
	}
	failed := func(err error) int {
		fmt.Fprintln(stderr, "cdfsim:", err)
		printFailureDetail(stderr, err)
		return 1
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !*workerMode && (set["chaos"] || set["worker-hb"]) {
		return usage("-chaos and -worker-hb apply only to -worker")
	}
	if set["dump-skip"] && *dumpN <= 0 {
		return usage("-dump-skip applies only to -dump")
	}

	profStop, err := shared.StartProfiling()
	if err != nil {
		return failed(err)
	}
	defer profStop()

	switch {
	case *workerMode:
		// Subprocess worker for the sweep service: no terminal output, no
		// cache access — the supervisor owns persistence. Exit 0 on clean
		// retirement (stdin EOF); anything else is a protocol failure.
		var chaos *harness.Chaos
		if *chaosSpec != "" {
			if chaos, err = harness.ParseChaos(*chaosSpec); err != nil {
				return usage("%v", err)
			}
		}
		if err := sweepd.RunWorker(os.Stdin, stdout, chaos, *workerHB); err != nil {
			return failed(err)
		}
		return 0
	case *prtCfg:
		fmt.Fprint(stdout, cdf.Table1Config())
		return 0
	case *list:
		for _, b := range cdf.Benchmarks() {
			fmt.Fprintf(stdout, "%-12s %-16s expect=%-8s %s\n", b.Name, b.SPEC, b.Expect, b.Phenotype)
		}
		return 0
	case *repro != "":
		return runRepro(stdout, stderr, *repro, shared.Options().Timeout)
	case *disasm:
		w, err := workload.ByName(*bench)
		if err != nil {
			return failed(err)
		}
		p, _ := w.Build()
		fmt.Fprint(stdout, p.String())
		return 0
	}

	opt := shared.Options()
	if opt.Mode, err = cdf.ParseMode(*mode); err != nil {
		return usage("%v", err)
	}
	opt.ROBSize = *rob
	opt.PerfectL1I, opt.FDIP, opt.ShadowBTB = *perfectL1I, *fdip, *shadowBTB
	if *noBr {
		off := false
		opt.MarkCriticalBranches = &off
	}
	ownCore := *traceN > 0 || *dumpN > 0
	if ownCore {
		switch {
		case opt.Sampling != (cdf.Sampling{}):
			return usage("-trace and -dump simulate one full core; drop the -sample-* flags")
		case *cacheDir != "":
			return usage("-trace and -dump simulate one full core; drop -cache-dir")
		case *dumpN > 0 && opt.Mode != cdf.ModeCDF && opt.Mode != cdf.ModeHybrid:
			return usage("-dump reads the Critical Uop Cache, which only -mode cdf and hybrid build")
		}
	}

	// The seed is always printed so a failing run can be replayed exactly;
	// 0 asks for a fresh one.
	if opt.Seed == 0 {
		opt.Seed = uint64(time.Now().UnixNano())
	}
	fmt.Fprintf(stdout, "seed        %d\n", opt.Seed)

	if ownCore {
		var tr core.Tracer
		if *traceN > 0 {
			tr = &core.TextTracer{W: stdout, MaxEvents: *traceN}
		}
		c, err := simulate(*bench, opt, tr)
		if err != nil {
			return failed(err)
		}
		if *dumpN > 0 {
			if err := dumpUops(stdout, *bench, c, uint64(dumpSkip), *dumpN); err != nil {
				return failed(err)
			}
		}
		return 0
	}

	var (
		res       cdf.Result
		fromCache bool
	)
	if *cacheDir != "" {
		// Opened in resume mode: cdfsim shares the store with sweep runs and
		// must never truncate a sweep's journal just to do one lookup.
		store, serr := sweepstore.Open(*cacheDir, true)
		if serr != nil {
			return failed(serr)
		}
		res, fromCache, err = cdf.RunCached(context.Background(), store, *bench, opt)
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	} else {
		res, err = cdf.Run(*bench, opt)
	}
	if err != nil {
		return failed(err)
	}

	if *cacheDir != "" {
		if fromCache {
			fmt.Fprintf(stdout, "cache       hit (result served from %s)\n", *cacheDir)
		} else {
			fmt.Fprintf(stdout, "cache       miss (simulated; result recorded to %s)\n", *cacheDir)
		}
	}
	fmt.Fprintf(stdout, "benchmark   %s (%s)\n", res.Benchmark, *mode)
	fmt.Fprintf(stdout, "stop reason %s\n", res.StopReason)
	fmt.Fprintf(stdout, "cycles      %d\n", res.Cycles)
	fmt.Fprintf(stdout, "uops        %d\n", res.Uops)
	fmt.Fprintf(stdout, "ipc         %.4f\n", res.IPC)
	if s := res.Sample; s != nil {
		fmt.Fprintf(stdout, "sampled     %d intervals of %s uops (%d measured + %d warmup each), %s fast-forwarded\n",
			s.Intervals, units.FormatUops(s.IntervalUops),
			s.MeasuredUops/uint64(s.Intervals), s.WarmupUops/uint64(s.Intervals),
			units.FormatUops(s.SkippedUops))
		if s.CIOK {
			fmt.Fprintf(stdout, "ipc 95%% ci  [%.4f, %.4f] (stderr %.4f)\n", s.CILow, s.CIHigh, s.IPCStderr)
		}
	}
	fmt.Fprintf(stdout, "mlp         %.2f\n", res.MLP)
	fmt.Fprintf(stdout, "mem traffic %d lines\n", res.MemTraffic)
	fmt.Fprintf(stdout, "energy      %.4e pJ (area %.3fx, cdf share %.1f%%)\n",
		res.EnergyPJ, res.AreaRel, 100*res.CDFAreaFrac)
	fmt.Fprintln(stdout)
	for _, m := range res.Metrics {
		fmt.Fprintf(stdout, "  %-28s %14.3f\n", m.Name, m.Value)
	}
	return 0
}

// simulate runs bench on the machine opt describes, with tr (if non-nil)
// attached, and returns the finished core for the callers that need more
// than a cdf.Result. It builds the machine the way cdf.Run does — Validate,
// then CoreConfig, with -oracle attached before the first cycle — so a
// traced or dumped run is the run cdfsim would otherwise report.
func simulate(bench string, opt cdf.Options, tr core.Tracer) (*core.Core, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	w, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	p, m := w.Build()
	c, err := core.New(opt.CoreConfig(), p, m)
	if err != nil {
		return nil, err
	}
	if opt.Oracle {
		oracle.Attach(c, p, m)
	}
	if tr != nil {
		c.SetTracer(tr)
	}
	if _, err := harness.Exec(context.Background(), c, harness.Options{Timeout: opt.Timeout, Seed: opt.Seed}); err != nil {
		return nil, err
	}
	return c, nil
}

// dumpUops prints n dynamic uops of bench's program from uop skip on, read
// from a fresh functional emulation, and stars each one the finished core
// c's Critical Uop Cache holds in a trace mask.
func dumpUops(w io.Writer, bench string, c *core.Core, skip uint64, n int) error {
	wl, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	p, m := wl.Build()
	em := emu.New(p, m)
	cuc := c.UopCache()
	var d emu.DynUop
	for i := uint64(0); i < skip; i++ {
		if !em.Step(&d) {
			return fmt.Errorf("program ended during -dump-skip")
		}
	}
	fmt.Fprintf(w, "; dynamic stream of %q from uop %d (crit = in the Critical Uop Cache mask)\n", bench, skip)
	for i := 0; i < n && em.Step(&d); i++ {
		mark := " "
		if tr, ok := cuc.Probe(p.BlockPC(d.BlockID)); ok && d.Index < 64 && tr.Mask&(1<<uint(d.Index)) != 0 {
			mark = "*"
		}
		extra := ""
		if d.U.Op.IsMem() {
			extra = fmt.Sprintf("  addr=%#x", d.Addr)
		}
		if d.U.Op.IsBranch() {
			extra = fmt.Sprintf("  taken=%v", d.Taken)
		}
		fmt.Fprintf(w, "%8d %s B%-3d[%2d] %-24s%s\n", d.Seq, mark, d.BlockID, d.Index, d.U.String(), extra)
	}
	return nil
}

// printFailureDetail expands a failed run's error: the per-field mismatch
// list and reference state for divergences, and the machine-state snapshot
// when one was captured.
func printFailureDetail(w io.Writer, err error) {
	var div *oracle.DivergenceError
	if errors.As(err, &div) {
		for _, m := range div.Mismatch {
			fmt.Fprintln(w, "  mismatch:", m)
		}
		fmt.Fprintln(w, "  reference:", div.Ref)
	}
	var sim *harness.SimError
	if errors.As(err, &sim) && sim.HasSnap {
		fmt.Fprintln(w, sim.Snap.String())
	}
}

// runRepro replays a minimized failure artifact. The replay succeeds (exit
// 0) only when the recorded failure class reproduces.
func runRepro(stdout, stderr io.Writer, path string, timeout time.Duration) int {
	c, fault, want, err := harness.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(stderr, "cdfsim:", err)
		return 2
	}
	src := c.Bench
	if src == "" {
		src = "embedded program"
	}
	fmt.Fprintf(stdout, "replaying %s: %s, mode %s, seed %d", path, src, c.Mode, c.Seed)
	if fault != "" {
		fmt.Fprintf(stdout, ", fault %q", fault)
	}
	fmt.Fprintf(stdout, " (recorded failure: %s)\n", want)

	_, err = harness.RunCase(context.Background(), c, true, fault, harness.Options{Timeout: timeout})
	if err == nil {
		fmt.Fprintf(stderr, "cdfsim: repro did not reproduce: run completed cleanly (recorded %q)\n", want)
		return 1
	}
	fmt.Fprintln(stdout, err)
	printFailureDetail(stdout, err)
	var sim *harness.SimError
	if errors.As(err, &sim) && sim.Reason == want {
		fmt.Fprintf(stdout, "reproduced recorded failure %q\n", want)
		return 0
	}
	fmt.Fprintf(stderr, "cdfsim: failure does not match recorded class %q\n", want)
	return 1
}
