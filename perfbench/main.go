// Command perfbench is the repository benchmark: it runs one workload of
// the CDF simulator for a fixed host-time budget, checks that every
// simulation ended correctly, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a traced run) as one JSON line. See
// README.md for the workloads, metrics and how to compare two commits.
//
// Usage (from the repository root, after perfbench/run.sh built it):
//
//	perfbench -workload fig13-full -seed 1 -seconds 25 -trace 0
//	perfbench compare -bench BENCHMARK.json parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"fig13-full":    runFig13,
	"sampled-long":  runSampledLong,
	"sweep-service": runSweepService,
	"front-supply":  runFrontSupply,
}

// bench is one invocation: the workload's inputs, its budget, and what it
// has measured so far.
type bench struct {
	workload string
	seed     uint64 // the -seed argument
	seconds  float64
	traced   bool
	binDir   string // cdfsim and cdfsweepd binaries
	workDir  string // scratch space for sweep caches and traces
	tr       *tracer

	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed correctness checks
	lines     []string // human-readable report, printed before the result
	digest    string   // hash of every simulated statistic of one pass
}

// simSeed derives the k-th simulator seed (k < 8) of this run from the
// benchmark seed. Simulator seed 0 means "randomize", so it is never used.
func (b *bench) simSeed(k uint64) uint64 { return b.seed*8 + k + 1 }

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func (b *bench) problem(format string, a ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, a...))
}

func (b *bench) note(format string, a ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, a...))
}

// repeat runs pass until the timed phase has lasted b.seconds, and at
// least minPasses times. A further pass is skipped when, judging by the
// slowest pass so far, it would end more than 15% past the deadline.
func (b *bench) repeat(minPasses int, pass func(i int) error) error {
	start := time.Now()
	budget := time.Duration(b.seconds * float64(time.Second))
	var slowest time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		slowest = max(slowest, time.Since(t0))
		elapsed := time.Since(start)
		if i+1 >= minPasses && (elapsed >= budget || elapsed+slowest > budget*115/100) {
			return nil
		}
	}
}

// peakRSSMB is the largest resident set of this process or any child it
// has waited for, in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail for these arguments
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // likewise
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}

// metricOut and resultOut are the shape of the final output line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the output line from the catalogue for this run kind.
// A catalogue metric the run did not measure is a bug in an untraced run
// (every end-to-end metric applies to every workload) and reads 0 in a
// traced one (the workload does not drive that layer).
func (b *bench) result() resultOut {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	out := resultOut{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok && !b.traced {
			b.problem("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.problem("metric %s is not a number (%v)", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	out.Correct = len(b.problems) == 0 && b.failed == 0 && b.attempted > 0
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 0, "benchmark seed; the simulator seeds are derived from it")
		seconds  = fs.Float64("seconds", 25, "length of the timed phase")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		binDir   = fs.String("bin", ".bench_build/bin", "directory holding the cdfsim and cdfsweepd binaries")
		workDir  = fs.String("work", ".bench_build/work", "scratch directory for sweep caches and traces")
		outPath  = fs.String("out", "", "append this run's result and provenance as one JSON line to this file")
		pin      = fs.Bool("pin", false, "record this run's simulated-statistics digest in "+digestsPath)
	)
	fs.Parse(os.Args[1:])
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	bin, err := filepath.Abs(*binDir)
	if err == nil {
		_, err = os.Stat(filepath.Join(bin, "cdfsim"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: simulator binaries: %v\n", err)
		os.Exit(1)
	}
	work := filepath.Join(*workDir, fmt.Sprintf("%s-seed%d-trace%d-pid%d", *workload, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)

	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		binDir: bin, workDir: work, metrics: map[string]float64{}}
	if b.traced {
		b.tr = newTracer()
	}
	prov := collectProvenance(b)
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	b.checkDigest(digestsPath, *pin)
	if b.traced {
		b.noteSelfTimes()
		b.set("trace.spans", float64(len(b.tr.spans)))
		path := filepath.Join(*workDir, "..", "traces", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			b.problem("writing spans: %v", err)
		} else {
			b.note("spans: %d written to %s", len(b.tr.spans), path)
		}
	}
	res := b.result()

	fmt.Println(prov.String())
	for _, l := range b.lines {
		fmt.Println(l)
	}
	for _, p := range b.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if b.attempted > 0 {
		fmt.Printf("fail_frac: %d/%d = %g\n", b.failed, b.attempted, float64(b.failed)/float64(b.attempted))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, prov, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

// noteSelfTimes reports, per span name, the calls, total time and self
// time (the span minus the time its child spans cover), largest self time
// first.
func (b *bench) noteSelfTimes() {
	agg := b.tr.byName()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].self > agg[names[j]].self })
	b.note("span self time by layer (calls, total s, self s):")
	for _, n := range names {
		lt := agg[n]
		b.note("  %-36s %8d %10.3f %10.3f", n, lt.calls, lt.total.Seconds(), lt.self.Seconds())
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
