package bench

import (
	"math"
	"sort"
	"time"
)

// Metric is one reported number with the quartiles and count of the samples
// behind it: their median, or for rss_peak_mb their mean. Aggregates
// computed once per run (ratios, geomeans, counts) carry N = 1 and
// Q1 = Q3 = Value.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	Q1    float64
	Q3    float64
	N     int
}

// summary is the median and quartiles of xs (xs is sorted in place).
func summary(name, unit string, xs []float64) Metric {
	if len(xs) == 0 {
		return Metric{Name: name, Unit: unit}
	}
	sort.Float64s(xs)
	return Metric{Name: name, Unit: unit, Value: quantile(xs, 0.5),
		Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// mean is the mean of xs with their quartiles (xs is sorted in place).
func mean(name, unit string, xs []float64) Metric {
	m := summary(name, unit, xs)
	if len(xs) > 0 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		m.Value = sum / float64(len(xs))
	}
	return m
}

// single wraps a once-per-run aggregate.
func single(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, Q1: v, Q3: v, N: 1}
}

// quantile interpolates linearly between the order statistics of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// geomean of the positive entries of xs (0 when there are none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
