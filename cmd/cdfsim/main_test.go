package main

import (
	"bytes"
	"strings"
	"testing"

	"cdf"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes pins cdfsim's exit status on invalid invocations: flag
// combinations that cannot mean what they say are rejected with 2 before
// anything runs, and a run whose options fail validation exits 1.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"bad mode", []string{"-mode", "warp"}, 2},
		{"trace with sampling", []string{"-trace", "3", "-uops", "100k", "-sample-interval", "10k"}, 2},
		{"trace with cache-dir", []string{"-trace", "3", "-cache-dir", t.TempDir()}, 2},
		{"trace with warmup >= uops", []string{"-trace", "3", "-warmup", "50k", "-uops", "20k"}, 1},
		{"dump on baseline", []string{"-dump", "8", "-mode", "baseline"}, 2},
		{"dump on pre", []string{"-dump", "8", "-mode", "pre"}, 2},
		{"dump-skip without dump", []string{"-dump-skip", "10k"}, 2},
		{"chaos without worker", []string{"-bench", "astar", "-uops", "5k", "-chaos", "not-a-spec"}, 2},
		{"worker-hb without worker", []string{"-worker-hb", "1s"}, 2},
		{"fdip with perfect-l1i", []string{"-fdip", "-perfect-l1i", "-uops", "5k"}, 1},
		{"unknown benchmark", []string{"-bench", "nope", "-uops", "5k"}, 1},
		{"disasm of unknown benchmark", []string{"-bench", "nope", "-disasm"}, 1},
		{"help", []string{"-h"}, 0},
		{"list", []string{"-list"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, stderr := runArgs(tc.args...); code != tc.want {
				t.Fatalf("cdfsim %q: exit %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr)
			}
		})
	}
}

// TestTraceSimulatesTheRunMachine is the regression test for the traced
// path dropping options: the core -trace builds must be the machine
// cdf.Run simulates, warmup and frontend knobs included, and -perfect-l1i
// must change the printed trace.
func TestTraceSimulatesTheRunMachine(t *testing.T) {
	opt := cdf.Options{Mode: cdf.ModeCDF, WarmupUops: 10_000, Seed: 7, PerfectL1I: true}
	res, err := cdf.Run("server", opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := simulate("server", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Cycles; got != res.Cycles {
		t.Fatalf("traced path simulated %d cycles, cdf.Run %d", got, res.Cycles)
	}

	base := []string{"-bench", "server", "-mode", "cdf", "-uops", "5k", "-seed", "7", "-trace", "2000"}
	code, plain, stderr := runArgs(base...)
	if code != 0 {
		t.Fatalf("trace run: exit %d: %s", code, stderr)
	}
	code, fe, stderr := runArgs(append(base, "-perfect-l1i")...)
	if code != 0 {
		t.Fatalf("perfect-l1i trace run: exit %d: %s", code, stderr)
	}
	if plain == fe {
		t.Fatal("-perfect-l1i left the pipeline trace unchanged")
	}
}

// TestDumpMarksCriticalUops pins -dump: after the seed header, a header
// line and exactly the requested uops from -dump-skip on, some of them
// starred by the trained Critical Uop Cache.
func TestDumpMarksCriticalUops(t *testing.T) {
	code, out, stderr := runArgs("-bench", "astar", "-mode", "cdf", "-uops", "60k", "-seed", "1",
		"-dump", "64", "-dump-skip", "20k")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 66 || lines[0] != "seed        1" || !strings.HasPrefix(lines[1], `; dynamic stream of "astar" from uop 20000`) {
		t.Fatalf("unexpected dump layout (%d lines):\n%s", len(lines), out)
	}
	if first := strings.Fields(lines[2])[0]; first != "20000" {
		t.Fatalf("dump starts at uop %s, want 20000", first)
	}
	marked := 0
	for _, l := range lines[2:] {
		if len(l) > 9 && l[9] == '*' {
			marked++
		}
	}
	if marked == 0 || marked == 64 {
		t.Fatalf("%d of 64 uops marked critical; want some but not all", marked)
	}
}

// TestDisasm pins -disasm as a static listing: no run, no seed header.
func TestDisasm(t *testing.T) {
	code, out, _ := runArgs("-bench", "astar", "-disasm")
	if code != 0 || strings.HasPrefix(out, "seed") || !strings.Contains(out, "B0") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}
