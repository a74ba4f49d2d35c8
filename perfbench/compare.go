package main

// The comparator: reads the results files (-out) of a parent and a change
// commit and applies the parent-vs-change rule to every end-to-end metric
// of every workload.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest alternating parent/change pairs a verdict needs.
const minPairs = 10

func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(w)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(w, "usage: perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change []record
		change, err = readRecords(fs.Arg(1))
		if err == nil {
			err = compareRecords(w, spec, parent, change)
		}
	}
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Provenance.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// checkComparable refuses pairs measured on different hosts or with
// different run lengths.
func checkComparable(rs []record) error {
	for _, r := range rs[1:] {
		if r.Provenance.Host != rs[0].Provenance.Host {
			return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v",
				rs[0].Provenance.Host, r.Provenance.Host)
		}
		if r.Provenance.Seconds != rs[0].Provenance.Seconds {
			return fmt.Errorf("refusing to compare runs of different lengths: %gs vs %gs",
				rs[0].Provenance.Seconds, r.Provenance.Seconds)
		}
	}
	return nil
}

// pairs matches parent and change runs of one workload by seed, in the
// order each side ran them, and reports whether the side that ran first
// alternates from pair to pair.
func pairs(parent, change []record) (ps [][2]record, alternating bool) {
	bySeed := map[uint64][]record{}
	for _, c := range change {
		bySeed[c.Provenance.Seed] = append(bySeed[c.Provenance.Seed], c)
	}
	for _, p := range parent {
		if cs := bySeed[p.Provenance.Seed]; len(cs) > 0 {
			ps = append(ps, [2]record{p, cs[0]})
			bySeed[p.Provenance.Seed] = cs[1:]
		}
	}
	first := func(pr [2]record) time.Time {
		if pr[0].Provenance.Started.Before(pr[1].Provenance.Started) {
			return pr[0].Provenance.Started
		}
		return pr[1].Provenance.Started
	}
	sort.Slice(ps, func(i, j int) bool { return first(ps[i]).Before(first(ps[j])) })
	alternating = true
	for i := 1; i < len(ps); i++ {
		prevParentFirst := ps[i-1][0].Provenance.Started.Before(ps[i-1][1].Provenance.Started)
		parentFirst := ps[i][0].Provenance.Started.Before(ps[i][1].Provenance.Started)
		if parentFirst == prevParentFirst {
			alternating = false
		}
	}
	return ps, alternating
}

// verdict is the outcome for one metric on one workload.
type verdict struct {
	wins, losses, ties   int
	parentMed, changeMed float64
	parentIQR            float64
	status               string
}

// judge applies the rule: a gain needs at least nine tenths of the pairs
// won (ties count for neither side) and a median gap larger than the
// parent's interquartile range; a regression is a change median worse than
// the parent's by more than the bound; a metric whose parent spread is
// wider than the bound is unresolved unless every change run beats every
// parent run.
func judge(better string, bound float64, parent, change []float64, alternating bool) verdict {
	v := verdict{parentMed: median(parent), changeMed: median(change)}
	gain := func(c, p float64) float64 { // positive when c is better than p
		if better == "lower" {
			return p - c
		}
		return c - p
	}
	for i := range parent {
		switch g := gain(change[i], parent[i]); {
		case g > 0:
			v.wins++
		case g < 0:
			v.losses++
		default:
			v.ties++
		}
	}
	n := len(parent)
	q1, _, q3, err := quartiles(parent)
	if err != nil || n < minPairs || !alternating {
		v.status = fmt.Sprintf("unresolved: %d pairs, alternating=%v (need %d alternating pairs)", n, alternating, minPairs)
		return v
	}
	v.parentIQR = q3 - q1
	gap := gain(v.changeMed, v.parentMed)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if gain(c, p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.wins*10 >= 9*n && gap > v.parentIQR:
		v.status = "improved"
	case -gap > bound*math.Abs(v.parentMed):
		v.status = "regressed: worse than the bound"
	case v.parentIQR > bound*math.Abs(v.parentMed) && !allBetter:
		v.status = "unresolved: parent spread exceeds the bound"
	case allBetter:
		v.status = "improved: every change run beats every parent run"
	default:
		v.status = "no regression: within the bound"
	}
	return v
}

func compareRecords(w io.Writer, spec benchSpec, parent, change []record) error {
	all := append(append([]record(nil), parent...), change...)
	if len(parent) == 0 || len(change) == 0 {
		return fmt.Errorf("need untraced results on both sides")
	}
	if err := checkComparable(all); err != nil {
		return err
	}
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Provenance.Workload] = append(m[r.Provenance.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for n := range pw {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "host: %+v\n", parent[0].Provenance.Host)
	fmt.Fprintf(w, "%-14s %-20s %5s %5s %5s %14s %14s %12s  %s\n",
		"workload", "metric", "wins", "loss", "ties", "parent p50", "change p50", "parent IQR", "verdict")
	for _, name := range names {
		ps, alt := pairs(pw[name], cw[name])
		failed := 0
		for _, pr := range ps {
			if !pr[0].Result.Correct || !pr[1].Result.Correct {
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(w, "%-14s %d pair(s) include a run that failed its correctness checks\n", name, failed)
		}
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			for _, pr := range ps {
				pv = append(pv, pr[0].Result.Metrics[m.Name].Value)
				cv = append(cv, pr[1].Result.Metrics[m.Name].Value)
			}
			v := judge(m.Better, m.Bound, pv, cv, alt)
			fmt.Fprintf(w, "%-14s %-20s %5d %5d %5d %14.6g %14.6g %12.4g  %s\n",
				name, m.Name, v.wins, v.losses, v.ties, v.parentMed, v.changeMed, v.parentIQR, v.status)
		}
	}
	return nil
}
