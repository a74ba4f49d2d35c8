package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, computed exactly as Python's statistics.quantiles(xs, n=4) does
// (its default "exclusive" method), so spreads printed here agree with
// the acceptance arithmetic. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile that leaves at least
// ten of n samples strictly above its nearest-rank order statistic. ok is
// false when n is too small for even the median to have ten beyond it.
func tailPercentile(n int) (p float64, rank int, ok bool) {
	for _, p := range tailLadder {
		r := int(math.Ceil(p / 100 * float64(n)))
		if r >= 1 && n-r >= 10 {
			return p, r, true
		}
	}
	return 0, 0, false
}

// latency summarizes one set of per-case latencies.
type latency struct {
	n      int
	p50    float64 // milliseconds
	tail   float64 // milliseconds
	tailAt string  // "p90", or "max" when no percentile has ten samples beyond it
}

// summarizeLatency summarizes per-case latencies. The tail percentile is
// chosen for nMin samples, the fewest a run of the workload can collect,
// so every run of a workload reports the same percentile; the run's actual
// count, never smaller, leaves at least as many samples beyond it.
func summarizeLatency(ds []time.Duration, nMin int) latency {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	l := latency{n: len(ms)}
	if len(ms) == 0 {
		return l
	}
	s := sorted(ms)
	l.p50 = median(s)
	if p, _, ok := tailPercentile(min(nMin, len(s))); ok {
		r := int(math.Ceil(p / 100 * float64(len(s))))
		l.tail, l.tailAt = s[r-1], fmt.Sprintf("p%g", p)
	} else {
		l.tail, l.tailAt = s[len(s)-1], "max"
	}
	return l
}

func (l latency) String() string {
	return fmt.Sprintf("p50 %.3f ms, %s %.3f ms over %d samples", l.p50, l.tailAt, l.tail, l.n)
}

// durMedian is median over durations, in seconds.
func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func durSum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
