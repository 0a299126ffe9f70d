package flow

import (
	"math/rand"
	"testing"
	"time"

	"lumen/internal/netpkt"
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
		opts := Options{IdleTimeout: idle}
		ua, ur := NewUniflowAssembler(opts), &refUniAssembler{idle: idle, active: map[netpkt.FiveTuple]*Uniflow{}}
		ca, cr := NewConnAssembler(opts), &refConnAssembler{idle: idle, active: map[netpkt.FiveTuple]*Connection{}}
		var slab StatSlab
		var unis, wantUnis []*Uniflow
		var conns, wantConns []*Connection
		closed := func(at int) {
			for _, u := range unis[at:] {
				if !u.closed() {
					t.Fatalf("released flow %v is open", u.Tuple)
				}
			}
		}
		closedConns := func(at int) {
			for _, c := range conns[at:] {
				if !c.closed() || c.State == "" {
					t.Fatalf("released connection %v is open or not finalized", c.Tuple)
				}
			}
		}
		for i := range stream {
			s := &stream[i]
			ua.Feed(s)
			ca.Feed(s)
			if s.HasTuple {
				ua.Newest().AddStat(StatOf(s), &slab)
				ca.Newest().AddStat(StatOf(s), &slab)
			}
			wantUnis = append(wantUnis, ur.feed(*s)...)
			wantConns = append(wantConns, cr.feed(*s)...)
			if rng.Intn(int(every)+1) == 0 {
				k, kc := len(unis), len(conns)
				unis, conns = ua.Release(unis), ca.Release(conns)
				closed(k)
				closedConns(kc)
				if len(unis)+ua.Held() != len(wantUnis) || len(conns)+ca.Held() != len(wantConns) {
					t.Fatalf("packet %d: %d+%d uniflows and %d+%d connections released and held, the reference closed %d and %d",
						i, len(unis), ua.Held(), len(conns), ca.Held(), len(wantUnis), len(wantConns))
				}
			}
		}
		k, kc := len(unis), len(conns)
		unis, conns = ua.ReleaseAll(unis), ca.ReleaseAll(conns)
		closed(k)
		closedConns(kc)
		wantUnis = append(wantUnis, ur.flush()...)
		wantConns = append(wantConns, cr.flush()...)
		refSortUniflows(wantUnis)
		refSortConnections(wantConns)
		sameUniflows(t, "released", unis, wantUnis)
		sameConnections(t, "released", conns, wantConns)
		if ua.Open()+ua.Held() != 0 || ca.Open()+ca.Held() != 0 {
			t.Fatal("flows left after ReleaseAll")
		}
	})
}
