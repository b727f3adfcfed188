package stats

import (
	"math/bits"
	"slices"

	"learnedftl/internal/nand"
)

// percentileRank is the index of the p-th percentile (0 < p <= 100) of n
// sorted values: int(p/100·n) − 1, clamped to [0, n).
func percentileRank(n int, p float64) int {
	idx := int(p/100*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// percentiles returns the ps-th percentiles of s, in the order asked (all
// 0 when s is empty), reordering s in place. No sort: each rank is
// selected inside the window between the nearest ranks already selected,
// so P99 then P99.9 costs one selection over s and a second over the top
// 1% above P99.
func percentiles(s []int64, ps []float64) []nand.Time {
	out := make([]nand.Time, len(ps))
	if len(s) == 0 {
		return out
	}
	for i, p := range ps {
		k := percentileRank(len(s), p)
		lo, hi := 0, len(s)
		for _, q := range ps[:i] {
			switch r := percentileRank(len(s), q); {
			case r < k:
				lo = max(lo, r+1)
			case r > k:
				hi = min(hi, r)
			default:
				lo, hi = k, k+1
			}
		}
		selectKth(s[lo:hi], k-lo)
		out[i] = nand.Time(s[k])
	}
	return out
}

// selectKth reorders s so that s[k] holds the value a full sort would put
// there, with nothing larger before it and nothing smaller after it:
// introselect over a Hoare partition, which splits runs of equal values
// evenly, falling back to slices.Sort past a depth limit.
func selectKth(s []int64, k int) { introselect(s, k, 2*bits.Len(uint(len(s)))) }

// introselect is selectKth with the number of partitions left before the
// sort fallback given explicitly.
func introselect(s []int64, k, depth int) {
	lo, hi := 0, len(s)-1
	for ; hi > lo; depth-- {
		if depth == 0 {
			slices.Sort(s[lo : hi+1])
			return
		}
		// Median of three into s[lo] <= s[mid] <= s[hi]; the pivot value
		// sits strictly below hi, so both sides of the split are non-empty.
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo-1, hi+1
		for {
			for i++; s[i] < pivot; i++ {
			}
			for j--; s[j] > pivot; j-- {
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		// s[lo..j] <= pivot <= s[j+1..hi]
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}
