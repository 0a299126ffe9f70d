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

// Total returns the number of observations.
func (c *Counter) Total() float64 { return c.total }

// Distinct returns the number of distinct keys seen.
func (c *Counter) Distinct() int { return len(c.counts) }

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

// NormalizedEntropy returns entropy divided by log2(distinct), in [0,1]
// (0 when fewer than two keys).
func (c *Counter) NormalizedEntropy() float64 {
	d := len(c.counts)
	if d < 2 {
		return 0
	}
	return c.Entropy() / math.Log2(float64(d))
}

// EntropyOf computes the Shannon entropy of an arbitrary categorical
// sample in one call.
func EntropyOf(keys []string) float64 {
	c := NewCounter()
	for _, k := range keys {
		c.Add(k)
	}
	return c.Entropy()
}
