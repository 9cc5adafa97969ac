package main

import (
	"math"
	"sort"

	"netlock/internal/stats"
)

// lat is a latency distribution: every successful observation in an HDR
// histogram (ns, about 1.6% relative error, fixed memory), plus the failed
// attempts, which rank above every success (a failure misses any latency
// limit). Not safe for concurrent use: each producer owns one, and they
// are merged after the window.
type lat struct {
	h      stats.Histogram
	failed int64
}

func (l *lat) add(v int64) { l.h.Record(v) }
func (l *lat) fail()       { l.failed++ }

func (l *lat) merge(o *lat) {
	l.h.Merge(&o.h)
	l.failed += o.failed
}

// count is the number of attempts the distribution covers.
func (l *lat) count() int64 { return l.h.Count() + l.failed }

// quantile returns the q-quantile (0 < q < 1) over all attempts, with
// failures at +Inf, plus how many attempts rank beyond it. ok is false when
// fewer than ten attempts lie beyond the quantile: the value is then not
// supported by the data and is reported as such.
func (l *lat) quantile(q float64) (v float64, beyond int64, ok bool) {
	total := l.count()
	if total == 0 {
		return 0, 0, false
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	beyond = total - rank
	ok = beyond >= 10
	n := l.h.Count()
	if rank > n {
		return math.Inf(1), beyond, ok
	}
	// Percentile ranks by ceil(p/100·n); half a rank below keeps float
	// rounding from landing on the next one.
	return float64(l.h.Percentile(100 * (float64(rank) - 0.5) / float64(n))), beyond, ok
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// splitmix64 is the input generator's PRNG: one 64-bit state per caller,
// so every slot's request stream is a pure function of the run seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
