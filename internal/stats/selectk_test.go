package stats

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"learnedftl/internal/nand"
)

// refPercentiles is the sort-based rule the selection replaces: sort a
// copy, then index it at int(p/100·n) − 1, clamped.
func refPercentiles(v []int64, ps []float64) []nand.Time {
	s := slices.Clone(v)
	slices.Sort(s)
	out := make([]nand.Time, len(ps))
	for i, p := range ps {
		if len(s) > 0 {
			out[i] = nand.Time(s[percentileRank(len(s), p)])
		}
	}
	return out
}

// checkPercentiles runs the selection on a copy of v and compares it with
// the sorted reference; the selection must also leave a permutation of v.
func checkPercentiles(t *testing.T, name string, v []int64, ps []float64) {
	t.Helper()
	s := slices.Clone(v)
	got := percentiles(s, ps)
	if want := refPercentiles(v, ps); !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d, ps=%v): got %v, want %v", name, len(v), ps, got, want)
	}
	a, b := slices.Clone(v), s
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Fatalf("%s (n=%d): selection changed the population", name, len(v))
	}
}

var percentileGrid = [][]float64{
	{99, 99.9},
	{99.9, 99},
	{50},
	{100},
	{100, 99.9, 99, 50, 1},
	{1, 50, 99, 99.9, 100},
	{0.5, 99, 99}, // a repeated rank
}

// Property: on random populations of every small size and value spread
// (duplicates included), every percentile grid selects exactly what
// sorting does.
func TestPercentilesMatchSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		spread := []int64{1, 3, 100, 1 << 40}[rng.Intn(4)]
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(spread)
		}
		for _, ps := range percentileGrid {
			checkPercentiles(t, "random", v, ps)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentilesEdgeShapes(t *testing.T) {
	equal := make([]int64, 1_000_000)
	for i := range equal {
		equal[i] = 42
	}
	sorted := make([]int64, 100_000)
	reversed := make([]int64, len(sorted))
	for i := range sorted {
		sorted[i] = int64(i)
		reversed[i] = int64(len(sorted) - i)
	}
	// Sawtooth and organ pipe defeat naive pivots.
	saw := make([]int64, 100_000)
	organ := make([]int64, len(saw))
	for i := range saw {
		saw[i] = int64(i % 97)
		organ[i] = int64(min(i, len(organ)-1-i))
	}
	cases := []struct {
		name string
		v    []int64
	}{
		{"empty", nil},
		{"one", []int64{7}},
		{"two", []int64{9, 3}},
		{"equal", equal},
		{"sorted", sorted},
		{"reversed", reversed},
		{"sawtooth", saw},
		{"organ", organ},
	}
	for _, tc := range cases {
		for _, ps := range percentileGrid {
			checkPercentiles(t, tc.name, tc.v, ps)
		}
	}
}

// TestSelectKthDepthFallback drives the depth-limited sort fallback: with
// the limit spent at every depth from the first partition on, introselect
// must still place the k-th value.
func TestSelectKthDepthFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := make([]int64, 5000)
	for i := range v {
		v[i] = rng.Int63n(50)
	}
	want := slices.Clone(v)
	slices.Sort(want)
	for depth := 0; depth < 4; depth++ {
		for _, k := range []int{0, 1, 2500, 4999} {
			s := slices.Clone(v)
			introselect(s, k, depth)
			if s[k] != want[k] {
				t.Fatalf("depth=%d k=%d: got %d, want %d", depth, k, s[k], want[k])
			}
			for i := range s {
				if i < k && s[i] > s[k] || i > k && s[i] < s[k] {
					t.Fatalf("depth=%d k=%d: s[%d]=%d on the wrong side of %d", depth, k, i, s[i], s[k])
				}
			}
		}
	}
}

// TestBuildReportTailsFromOneCopy pins BuildReport's tails (whole run and
// per stream) to the single-percentile accessors.
func TestBuildReportTailsFromOneCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewCollector()
	c.DefineStreams([]string{"a", "b"})
	for i := 0; i < 5000; i++ {
		c.RecordQueued(i%2, i%3 == 0, nand.Time(rng.Int63n(1000)), nand.Time(rng.Int63n(100000)), 1)
	}
	r := BuildReport("t", c, nand.OpCounters{}, nand.Second, 4096, nand.DefaultEnergy())
	if r.P99 != c.Percentile(99) || r.P999 != c.Percentile(99.9) {
		t.Fatalf("report tails %d/%d, accessors %d/%d", r.P99, r.P999, c.Percentile(99), c.Percentile(99.9))
	}
	for i, s := range c.Streams() {
		if r.Streams[i].P99 != s.Percentile(99) || r.Streams[i].P999 != s.Percentile(99.9) {
			t.Fatalf("stream %s tails %d/%d, accessors %d/%d", s.Name,
				r.Streams[i].P99, r.Streams[i].P999, s.Percentile(99), s.Percentile(99.9))
		}
	}
}
