package flow

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzReleaseOrder: over a random time-ordered stream with repeated
// timestamps and tuples, the flows Release hands on at random cuts,
// then ReleaseAll's, are for both granularities exactly the whole-table
// reference's flows in canonical order, every flow leaves closed (a
// connection finalized), and the flows released plus those held are
// the flows the reference has closed.
func FuzzReleaseOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint16(1500), uint8(3))
	}
	f.Add(int64(9), uint16(40), uint8(0))
	// In these streams a closed flow ties an open one on First and sorts
	// after it on the tuple: a release bound that is not strict, or that
	// ignores the open flow, hands it on too early.
	f.Add(int64(12), uint16(1500), uint8(0))
	f.Add(int64(-5), uint16(1664), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, every uint8) {
		rng := rand.New(rand.NewSource(seed))
		idle := []time.Duration{64 * time.Second, 3 * time.Second}[rng.Intn(2)]
		stream := randomStream(rng, int(n%4000), idle)
		keys := bothKeys(Options{IdleTimeout: idle})
		var slab StatSlab
		released := make([][]*Flow, len(keys))
		want := make([][]*Flow, len(keys))
		// closed checks the flows released from at on: each has left its
		// idle list and, under the bidirectional key, been finalized.
		closed := func(j, at int) {
			for _, f := range released[j][at:] {
				if f.prev != nil || !keys[j].uni && f.State == "" {
					t.Fatalf("released %s %v is open or not finalized", keys[j].name, f.Tuple)
				}
			}
		}
		for i := range stream {
			s := &stream[i]
			for j, k := range keys {
				k.a.Feed(s)
				if s.HasTuple {
					k.a.Newest().AddStat(StatOf(s), &slab)
				}
				want[j] = append(want[j], k.ref.feed(*s)...)
			}
			if rng.Intn(int(every)+1) == 0 {
				for j, k := range keys {
					at := len(released[j])
					released[j] = k.a.Release(released[j])
					closed(j, at)
					if len(released[j])+k.a.Held() != len(want[j]) {
						t.Fatalf("packet %d: %d+%d %ss released and held, the reference closed %d",
							i, len(released[j]), k.a.Held(), k.name, len(want[j]))
					}
				}
			}
		}
		for j, k := range keys {
			at := len(released[j])
			released[j] = k.a.ReleaseAll(released[j])
			closed(j, at)
			want[j] = append(want[j], k.ref.flush()...)
			if k.uni {
				refSortUniflows(want[j])
			} else {
				refSortConnections(want[j])
			}
			sameFlows(t, "released "+k.name, released[j], want[j], k.uni)
			if k.a.Open()+k.a.Held() != 0 {
				t.Fatalf("%ss left after ReleaseAll", k.name)
			}
		}
	})
}
