package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (mean of the middle two when even).
// It returns 0 for an empty slice so a workload that produced no sample
// reports a visibly wrong number instead of panicking.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so
// the spread this harness prints is the spread the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// Verdicts of comparing one metric between two result sets.
const (
	verdictWithin     = "within"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareMetric judges cur against base for one metric. higher says which
// direction is better; bound is the share of base's value the metric may
// worsen by. The verdict is unresolved — never better or worse — when the
// two sides were not recorded on the same host cohort, or when either
// side's own pass-to-pass spread is wider than the bound, unless every cur
// sample reads better than every base sample.
func compareMetric(base, cur metric, higher bool, bound float64, sameCohort bool) (verdict string, change float64) {
	if base.Value == 0 {
		return verdictUnresolved, 0
	}
	// change > 0 means cur is worse, as a share of base.
	change = (cur.Value - base.Value) / math.Abs(base.Value)
	if higher {
		change = -change
	}
	if !sameCohort {
		return verdictUnresolved, change
	}
	bs, cs := base.samples(), cur.samples()
	if math.Max(spread(bs), spread(cs)) > bound {
		if allBetter(bs, cs, higher) {
			return verdictBetter, change
		}
		return verdictUnresolved, change
	}
	switch {
	case change > bound:
		return verdictWorse, change
	case change < -bound:
		return verdictBetter, change
	}
	return verdictWithin, change
}

// samples are the per-pass values behind a metric, or the value alone.
func (m metric) samples() []float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []float64{m.Value}
}

// allBetter reports whether every cur sample beats every base sample.
func allBetter(base, cur []float64, higher bool) bool {
	minOf := func(v []float64) float64 {
		m := v[0]
		for _, x := range v {
			m = math.Min(m, x)
		}
		return m
	}
	maxOf := func(v []float64) float64 {
		m := v[0]
		for _, x := range v {
			m = math.Max(m, x)
		}
		return m
	}
	if higher {
		return minOf(cur) > maxOf(base)
	}
	return maxOf(cur) < minOf(base)
}

// failedOps is the failed-operation accounting rule: a pass whose campaign
// errored, ended failed/cancelled, or failed an output check counts every
// operation it attempted as failed, on top of operations it lost outright.
func failedOps(attempted, lost int, checksOK bool) int {
	if !checksOK {
		return attempted
	}
	return lost
}
