package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: the median is the gated
// value; the quartiles, minimum and count say how far to trust it.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// TailP is the highest of p90/p95/p99/p99.9 with at least ten
	// samples beyond it (0 when there are too few samples for any).
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

// quartiles returns Q1, the median and Q3 by the exclusive method —
// the same numbers as Python's statistics.quantiles(v, n=4), which the
// acceptance procedure uses for run-to-run spread.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank percentile (p in (0,1]) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := summary{N: len(v), Min: math.Inf(1)}
	for _, x := range v {
		s.Min = math.Min(s.Min, x)
	}
	s.Q1, s.Median, s.Q3 = quartiles(v)
	for _, p := range []float64{0.9, 0.95, 0.99, 0.999} {
		if len(v)-int(math.Ceil(p*float64(len(v)))) >= 10 {
			s.TailP, s.Tail = p, percentile(v, p)
		}
	}
	return s
}

// scaled multiplies every value of the summary by f.
func (s summary) scaled(f float64) summary {
	s.Min, s.Q1, s.Median, s.Q3, s.Tail = s.Min*f, s.Q1*f, s.Median*f, s.Q3*f, s.Tail*f
	return s
}
