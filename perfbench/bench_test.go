package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"cdf"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10}, {n: 19},
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99, ok: true},
		{n: 20000, want: 99.9, ok: true},
	} {
		p, _, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	for n := 1; n <= 3000; n++ {
		if _, r, ok := tailPercentile(n); ok && n-r < 10 {
			t.Fatalf("n=%d: rank %d leaves %d samples beyond it", n, r, n-r)
		}
	}
}

func TestSummarizeLatencyStatesItsTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	l := summarizeLatency(ds, 100)
	if l.tailAt != "p90" || l.tail != 90 || l.p50 != 50.5 || l.n != 100 {
		t.Fatalf("got %+v, want p50 50.5, p90 90 over 100", l)
	}
	if l := summarizeLatency(ds[:5], 5); l.tailAt != "max" || l.tail != 5 {
		t.Fatalf("five samples: got %+v, want max 5", l)
	}
	// A run that collected more samples than its minimum keeps the
	// minimum's percentile.
	if l := summarizeLatency(ds, 40); l.tailAt != "p75" || l.tail != 75 {
		t.Fatalf("100 samples, minimum 40: got %+v, want p75 75", l)
	}
}

// The spread the acceptance arithmetic uses is Python's
// statistics.quantiles(xs, n=4); these cut points are what it returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil || q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v %v; want %v %v %v", tc.xs, q1, q2, q3, err, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudgeWinRuleTiesCountForNeither(t *testing.T) {
	parent := []float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9}
	better := func(ties int) []float64 {
		c := make([]float64, len(parent))
		for i, p := range parent {
			c[i] = p - 2
			if i < ties {
				c[i] = p
			}
		}
		return c
	}
	// Nine wins and one tie out of ten pairs meets nine tenths.
	if v := judge("lower", 0.05, parent, better(1), true); v.status != "improved" || v.wins != 9 || v.ties != 1 {
		t.Fatalf("9 wins + 1 tie: %+v", v)
	}
	// Eight wins and two ties does not, even with a large median gap.
	if v := judge("lower", 0.05, parent, better(2), true); v.status == "improved" || v.wins != 8 || v.ties != 2 {
		t.Fatalf("8 wins + 2 ties: %+v", v)
	}
	// Too few pairs, or pairs that did not alternate, resolve nothing.
	if v := judge("lower", 0.05, parent[:9], better(0)[:9], true); !strings.HasPrefix(v.status, "unresolved") {
		t.Fatalf("9 pairs: %+v", v)
	}
	if v := judge("lower", 0.05, parent, better(0), false); !strings.HasPrefix(v.status, "unresolved") {
		t.Fatalf("not alternating: %+v", v)
	}
	// A change median worse than the bound is a regression.
	worse := make([]float64, len(parent))
	for i, p := range parent {
		worse[i] = p * 1.2
	}
	if v := judge("lower", 0.05, parent, worse, true); !strings.HasPrefix(v.status, "regressed") {
		t.Fatalf("20%% worse: %+v", v)
	}
}

func rec(cpu string, workload string, seed uint64, at time.Time, wall float64) record {
	return record{
		Provenance: provenance{Host: host{CPU: cpu, NProc: 2, GOOS: "linux", GOARCH: "amd64", Go: "go1.24.0"},
			Workload: workload, Seed: seed, Seconds: 25, Started: at},
		Result: resultOut{Correct: true, Attempted: 1, Metrics: map[string]metricOut{"wall_s": {Value: wall, Unit: "s"}}},
	}
}

func TestCompareRefusesCrossHost(t *testing.T) {
	t0 := time.Now()
	var parent, change []record
	for i := 0; i < 10; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		parent = append(parent, rec("cpu A", "fig13-full", uint64(i), at, 10))
		change = append(change, rec("cpu A", "fig13-full", uint64(i), at.Add(time.Second), 9))
	}
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareRecords(&out, spec, parent, change); err != nil {
		t.Fatalf("same host: %v", err)
	}
	change[3].Provenance.Host.CPU = "cpu B"
	err := compareRecords(&out, spec, parent, change)
	if err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("cross-host comparison was not refused: %v", err)
	}
}

func TestPairsDetectAlternation(t *testing.T) {
	t0 := time.Now()
	var parent, change []record
	for i := 0; i < 4; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		p, c := at, at.Add(time.Second)
		if i%2 == 1 {
			p, c = c, p
		}
		parent = append(parent, rec("x", "w", uint64(i), p, 1))
		change = append(change, rec("x", "w", uint64(i), c, 1))
	}
	if ps, alt := pairs(parent, change); len(ps) != 4 || !alt {
		t.Fatalf("alternating runs: %d pairs, alternating=%v", len(ps), alt)
	}
	change[1].Provenance.Started = parent[1].Provenance.Started.Add(time.Second)
	if _, alt := pairs(parent, change); alt {
		t.Fatal("parent ran first twice in a row, yet the pairs count as alternating")
	}
}

// One seed must give the same digest on every run, and the traced
// replays must reproduce cdf.Run's statistics exactly.
func TestDigestStableAndReplaysMatchRun(t *testing.T) {
	full := []simCase{
		{label: "mcf/cdf", bench: "mcf", opt: cdf.Options{Mode: cdf.ModeCDF, MaxUops: 3000, Seed: 7}},
		{label: "server/shadow", bench: "server", opt: cdf.Options{Mode: cdf.ModeBaseline, MaxUops: 3000, Seed: 7,
			Frontend: true, FDIP: true, ShadowBTB: true}},
	}
	sampled := simCase{label: "lbm/cdf", bench: "lbm", opt: cdf.Options{Mode: cdf.ModeCDF, MaxUops: 60_000, Seed: 7,
		Sampling: cdf.Sampling{Interval: 20_000, Measure: 2_000, Warmup: 1_000}}}
	cases := append(full, sampled)
	b := &bench{metrics: map[string]float64{}}
	first, second := runCases(b, cases), runCases(b, cases)
	if b.failed != 0 || len(b.problems) != 0 {
		t.Fatalf("runs failed their checks: %v", b.problems)
	}
	if first.digest != second.digest {
		t.Fatalf("same seed, different digests: %s vs %s", first.digest, second.digest)
	}
	var ls loopStats
	for i, c := range full {
		m, err := replayFull(nil, 0, c, &ls)
		if err != nil {
			t.Fatal(err)
		}
		if digest([]digestEntry{{c.label, m}}) != digest([]digestEntry{{c.label, first.results[i].Metrics}}) {
			t.Errorf("%s: replay statistics differ from cdf.Run's", c.label)
		}
	}
	var f funcLayers
	r, err := replaySampled(nil, 0, sampled, &ls, &f)
	if err != nil {
		t.Fatal(err)
	}
	if digest([]digestEntry{{"x", tableMetrics(&r.total)}}) != digest([]digestEntry{{"x", first.results[2].Metrics}}) {
		t.Error("sampled replay statistics differ from cdf.Run's")
	}
	if r.intervals != first.results[2].Sample.Intervals {
		t.Errorf("sampled replay measured %d intervals, cdf.Run %d", r.intervals, first.results[2].Sample.Intervals)
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if (metricDef{got[i].Name, got[i].Unit, got[i].Better}) != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Self time is a span minus the union of its children, so overlapping
// children are not subtracted twice.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("root", 0, "", at(0), at(10))
	tr.record("kid", root, "", at(1), at(3))
	tr.record("kid", root, "", at(2), at(5))
	tr.record("kid", root, "", at(7), at(8))
	agg := tr.byName()
	if got := agg["root"].self; got != 5*time.Millisecond {
		t.Fatalf("root self time %v, want 5ms", got)
	}
	if k := agg["kid"]; k.calls != 3 || k.total != 6*time.Millisecond || k.self != k.total {
		t.Fatalf("kid: %+v", k)
	}
}
