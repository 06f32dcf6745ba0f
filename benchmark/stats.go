package main

import (
	"math"
	"slices"
)

// median returns the middle value of vs (the mean of the two middle values
// for an even count). It does not modify vs.
func median(vs []float64) float64 {
	return percentile(vs, 0.5)
}

// percentile returns the q-quantile of vs by linear interpolation between
// closest ranks, the definition Python's statistics and numpy default to for
// the median. It returns NaN for an empty input.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spread is (max-min)/|median|, the noise statistic of -aa.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return (slices.Max(vs) - slices.Min(vs)) / math.Abs(m)
}

// ratio is num/den, or 0 when the layer that would produce den was bypassed.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children of one parent never overlap here: the
// benchmark is single-threaded and spans nest.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.EndNs - sp.StartNs
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.EndNs - sp.StartNs
		}
	}
	return self
}
