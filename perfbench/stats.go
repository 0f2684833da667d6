package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a quoted percentile.
const minTail = 10

// percentileLadder lists the percentiles a timing may be quoted at.
var percentileLadder = []float64{50, 80, 90, 95, 99, 99.9}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples. The tolerance keeps a product such as 99.9% of 10000,
// which floating point puts a hair above 9990, at its exact rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highestPercentile returns the highest ladder percentile that leaves at
// least minTail of n samples beyond it, or 0 when even the median does
// not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n > 0 && n-rank(n, p) >= minTail {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median returns the middle value of xs, averaging the two middle
// values of an even-length slice (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// paperGapPP is |simulated - paper| in percentage points, for a
// simulated fraction (0.0158 for +1.58%) against a paper value already
// in percent.
func paperGapPP(simFrac, paperPct float64) float64 {
	return math.Abs(simFrac*100 - paperPct)
}

// geomeanGain recomputes a geomean IPC gain from per-spec IPCs as
// exp(mean(log(test/base))) - 1, independently of the simulator's own
// stats package, so the benchmark can check the figure's geomean row.
func geomeanGain(test, base []float64) float64 {
	if len(test) != len(base) || len(test) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range test {
		sum += math.Log(test[i] / base[i])
	}
	return math.Exp(sum/float64(len(test))) - 1
}

// splitmix64 scrambles a seed into a well-mixed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// warmupOffset is the extra warmup a sweep runs for a workload seed:
// 0 for seed 0 (the windows the paper figures use), otherwise 16 to
// 512 instructions, so each seed measures a different window of the
// same registry programs. The offset stays small against the warmup:
// longer warmups shift the simulated results themselves.
func warmupOffset(seed int64) uint64 {
	if seed == 0 {
		return 0
	}
	return (splitmix64(uint64(seed))%32 + 1) * 16
}

// profileSeed is the generator seed the layer replays use for a
// registry profile: the registry seed itself for seed 0, otherwise a
// seed-derived variant of it.
func profileSeed(registry, seed int64) int64 {
	if seed == 0 {
		return registry
	}
	return registry ^ int64(splitmix64(uint64(seed))>>1)
}
