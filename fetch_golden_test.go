package cdf

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"cdf/internal/workload"
)

// fetchGoldenPath pins the fetch-sensitive statistics of a fixed case set.
const fetchGoldenPath = "testdata/fetch_golden.txt"

var updateFetchGolden = flag.Bool("update-fetch-golden", false,
	"rewrite "+fetchGoldenPath+" from the current simulator")

// fetchGoldenRows are the statistics the L1I fetch path decides: cycle
// counts, instruction misses, the fetch-stall split, the branch counters
// a re-steer bubble interleaves with, and the modelled energy.
var fetchGoldenRows = []string{
	"cycles", "l1i_misses",
	"fetch_stall_cycles", "fetch_stall_imiss", "fetch_stall_btb", "fetch_stall_redirect",
	"btb_misses", "branch_mispredicts", "energy_pj",
}

type fetchGoldenCase struct {
	name  string
	bench string
	opt   Options
}

// fetchGoldenCases is every kernel on every mode at 20k uops, plus sampled
// and warmed-up runs, which enter the fetch path through the interval core
// and the warmup reset.
func fetchGoldenCases() []fetchGoldenCase {
	var cases []fetchGoldenCase
	for _, mm := range simModes {
		for _, w := range workload.All() {
			cases = append(cases, fetchGoldenCase{mm.name + "/" + w.Name, w.Name,
				Options{Mode: mm.mode, MaxUops: 20_000, Seed: 7}})
		}
	}
	sampled := Sampling{Interval: 20_000, Measure: 2_000, Warmup: 1_000}
	return append(cases,
		fetchGoldenCase{"sampled/baseline/server", "server",
			Options{Mode: ModeBaseline, MaxUops: 200_000, Seed: 7, Sampling: sampled}},
		fetchGoldenCase{"sampled/cdf/astar", "astar",
			Options{Mode: ModeCDF, MaxUops: 200_000, Seed: 7, Sampling: sampled}},
		fetchGoldenCase{"warmup/baseline/interp", "interp",
			Options{Mode: ModeBaseline, MaxUops: 20_000, WarmupUops: 5_000, Seed: 7}},
		fetchGoldenCase{"warmup/hybrid/deepcall", "deepcall",
			Options{Mode: ModeHybrid, MaxUops: 20_000, WarmupUops: 5_000, Seed: 7}},
	)
}

// fetchGoldenValues returns res's golden rows in full precision.
func fetchGoldenValues(res Result) map[string]string {
	out := make(map[string]string, len(fetchGoldenRows))
	for _, row := range fetchGoldenRows {
		v := res.Metric(row)
		switch row {
		case "cycles":
			v = float64(res.Cycles)
		case "energy_pj":
			v = res.EnergyPJ
		}
		out[row] = strconv.FormatFloat(v, 'f', -1, 64)
	}
	return out
}

// TestFetchPathGolden pins the L1I fetch path's statistics exactly, so
// restructuring it (DESIGN.md §13) cannot change a result unnoticed.
// Regenerate the file, only for an intended model change, with
//
//	go test -run TestFetchPathGolden -update-fetch-golden .
func TestFetchPathGolden(t *testing.T) {
	t.Parallel()
	cases := fetchGoldenCases()
	got := make([]map[string]string, len(cases))
	for i, c := range cases {
		res, err := Run(c.bench, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[i] = fetchGoldenValues(res)
	}

	if *updateFetchGolden {
		var b strings.Builder
		b.WriteString("# TestFetchPathGolden: case row value (regenerate with -update-fetch-golden)\n")
		for i, c := range cases {
			for _, row := range fetchGoldenRows {
				fmt.Fprintf(&b, "%s %s %s\n", c.name, row, got[i][row])
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fetchGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, err := readFetchGolden(fetchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	const regen = "if the model change is intended, regenerate with: go test -run TestFetchPathGolden -update-fetch-golden ."
	if len(want) != len(cases)*len(fetchGoldenRows) {
		t.Fatalf("%s has %d rows, want %d; %s", fetchGoldenPath, len(want), len(cases)*len(fetchGoldenRows), regen)
	}
	bad := 0
	for i, c := range cases {
		for _, row := range fetchGoldenRows {
			w, ok := want[c.name+" "+row]
			switch {
			case !ok:
				t.Errorf("%s: row %s missing from %s", c.name, row, fetchGoldenPath)
			case got[i][row] != w:
				t.Errorf("%s: row %s = %s, golden %s", c.name, row, got[i][row], w)
			default:
				continue
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d rows differ from %s; %s", bad, fetchGoldenPath, regen)
	}
}

// readFetchGolden parses the golden file into "case row" -> value.
func readFetchGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want \"case row value\", got %q", path, n, line)
		}
		out[fields[0]+" "+fields[1]] = fields[2]
	}
	return out, sc.Err()
}
