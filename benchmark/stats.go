package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// bandMean is the mean of the part of the sorted sample between its lo and
// hi quantiles (0 <= lo < hi <= 1); an observation the band cuts through
// counts by the fraction inside. bandMean(xs, 0.25, 0.75) is the
// interquartile mean.
func bandMean(xs []float64, lo, hi float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	from, to := lo*float64(len(s)), hi*float64(len(s))
	var sum float64
	for i, x := range s {
		// Observation i covers [i, i+1) of the sorted sample.
		a, b := float64(i), float64(i+1)
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			sum += x * (b - a)
		}
	}
	return sum / (to - from)
}

// fastBand is the estimator of task_ns: the mean of a run's reps between
// their 5th and 25th percentile. The host's noise is external, comes in
// phases of 10 s to minutes and almost only adds time, so a run's reps are
// a mixture of a fast and a slow mode whose shares differ from run to run.
// The median jumps when the slow share crosses one half and the
// interquartile mean moves with the share; the fast band stays inside the
// fast mode as long as a quarter of the reps saw it, and dropping the
// fastest 5 % keeps a lucky rep out. README, "Estimator", has the measured
// spreads of the candidates.
func fastBand(xs []float64) float64 { return bandMean(xs, 0.05, 0.25) }
