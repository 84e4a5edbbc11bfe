package main

import "sort"

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between order statistics; 0 for an empty slice. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func sumOf(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}
