package features

import (
	"math"
	"slices"
)

// Counter tallies categorical observations for entropy/distinct features
// (e.g. the source-port entropy smartdet keys DoS detection on).
type Counter struct {
	counts map[string]float64
	total  float64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]float64)}
}

// Add increments the count of key.
func (c *Counter) Add(key string) {
	c.counts[key]++
	c.total++
}

// Entropy returns the Shannon entropy (bits) of the key distribution.
// It sums the terms in ascending count order, not map order, so the
// result is the same bits on every call and whatever order the keys
// arrived in.
func (c *Counter) Entropy() float64 {
	if c.total == 0 {
		return 0
	}
	counts := make([]float64, 0, len(c.counts))
	for _, n := range c.counts {
		counts = append(counts, n)
	}
	slices.Sort(counts)
	var h float64
	for _, n := range counts {
		p := n / c.total
		h -= p * math.Log2(p)
	}
	return h
}
