// Package profiling wires the standard pprof/runtime-trace collectors into
// the command-line tools (DESIGN.md §9): cdfsim and cdfexperiments accept
// -cpuprofile, -memprofile, and -exectrace (declared once in
// internal/cliflags), so a slow run can be profiled
// in place with no rebuild. The output files feed `go tool pprof` and
// `go tool trace` directly.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins the collectors selected by the (possibly empty) file paths
// and returns a stop function to run at process exit. The heap profile is
// written at stop time, after a final GC, so it reflects live steady-state
// memory rather than transient garbage.
func Start(cpuProfile, memProfile, execTrace string) (stop func(), err error) {
	var stops []func()
	fail := func(err error) (func(), error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		return nil, err
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fail(fmt.Errorf("profiling: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: start CPU profile: %w", err))
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if execTrace != "" {
		f, err := os.Create(execTrace)
		if err != nil {
			return fail(fmt.Errorf("profiling: %w", err))
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: start execution trace: %w", err))
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if memProfile != "" {
		stops = append(stops, func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "profiling:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "profiling: write heap profile:", err)
			}
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}
