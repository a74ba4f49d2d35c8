package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cdf"
)

func parse(t *testing.T, args ...string) (*Run, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r := Bind(fs)
	return r, fs.Parse(args)
}

// TestOptions maps argv to the cdf.Options the shared flags describe:
// zero defaults, unit suffixes on every uop count, and each switch.
func TestOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want cdf.Options
	}{
		{"defaults", nil, cdf.Options{}},
		{"plain counts", []string{"-uops", "200000", "-warmup", "50000"},
			cdf.Options{MaxUops: 200_000, WarmupUops: 50_000}},
		{"unit suffixes", []string{"-uops", "5M", "-warmup", "200k"},
			cdf.Options{MaxUops: 5_000_000, WarmupUops: 200_000}},
		{"sampling", []string{"-uops", "1M", "-sample-interval", "50k", "-sample-measure", "8k", "-sample-warmup", "1.5k"},
			cdf.Options{MaxUops: 1_000_000, Sampling: cdf.Sampling{Interval: 50_000, Measure: 8_000, Warmup: 1_500}}},
		{"seed and timeout", []string{"-seed", "7", "-timeout", "2m"},
			cdf.Options{Seed: 7, Timeout: 2 * time.Minute}},
		{"switches", []string{"-paranoid", "-oracle", "-slowpath"},
			cdf.Options{Paranoid: true, Oracle: true, SlowPath: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := parse(t, tc.args...)
			if err != nil {
				t.Fatalf("parse %q: %v", tc.args, err)
			}
			if got := r.Options(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%q:\n got %+v\nwant %+v", tc.args, got, tc.want)
			}
		})
	}
}

// TestRejectsBadValues pins that malformed values fail the parse rather
// than falling back to a default.
func TestRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-uops", "5x"},
		{"-warmup", "-1"},
		{"-sample-interval", "1.0001k"},
		{"-seed", "abc"},
		{"-timeout", "soon"},
	} {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("parse %q succeeded, want an error", args)
		}
	}
}

// TestStartProfiling checks the profile flags reach the collectors: each
// named file is written and non-empty once the stop function runs.
func TestStartProfiling(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu"), filepath.Join(dir, "mem"), filepath.Join(dir, "trace")
	r, err := parse(t, "-cpuprofile", cpu, "-memprofile", mem, "-exectrace", tr)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := r.StartProfiling()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, f := range []string{cpu, mem, tr} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written (%v)", f, err)
		}
	}
}
