package main

import (
	"io"
	"testing"
)

// TestExitCodes pins cdfexperiments' exit status on invalid invocations
// and on the listing paths, which run no simulation.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"bad uop count", []string{"-uops", "5x"}, 2},
		{"unknown experiment", []string{"-exp", "bogus"}, 2},
		{"resume without cache-dir", []string{"-resume"}, 2},
		{"bad chaos spec", []string{"-chaos", "not-a-spec"}, 2},
		{"help", []string{"-h"}, 0},
		{"list", []string{"-list"}, 0},
		{"table1", []string{"-exp", "table1", "-seed", "1"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code := run(tc.args, io.Discard, io.Discard); code != tc.want {
				t.Fatalf("cdfexperiments %q: exit %d, want %d", tc.args, code, tc.want)
			}
		})
	}
}
