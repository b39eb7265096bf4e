package main

import (
	"math"
	"sort"
	"time"
)

// tail is one percentile of a latency sample, with the sample count and the
// percentile actually reported.
type tail struct {
	Value float64 // milliseconds
	Pct   float64 // percentile reported (99, or lower when the sample is small)
	N     int     // samples
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentile is the one percentile helper of the benchmark. It returns the
// nearest-rank q-th percentile of lat in milliseconds. For a tail (q > 50)
// it lowers q until at least minBeyond samples lie beyond it, so a p99
// needs 1,000 samples and a smaller sample reports the highest percentile
// it can support; tail.Pct says which one was reported.
func percentile(lat []time.Duration, q float64) tail {
	n := len(lat)
	if n == 0 {
		return tail{Pct: q}
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q > 50 {
		if maxQ := 100 * (1 - float64(minBeyond)/float64(n)); q > maxQ {
			q = math.Max(50, math.Floor(maxQ*10)/10)
		}
	}
	rank := int(math.Ceil(q/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return tail{Value: ms(s[rank]), Pct: q, N: n}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float samples (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a bypassed layer reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
