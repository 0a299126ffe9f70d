package dataset

import (
	"net/netip"
	"testing"
	"time"

	"lumen/internal/netpkt"
)

// viewOf serializes a hand-built packet and returns a view over its
// wire bytes.
func viewOf(t *testing.T, p *netpkt.Packet) netpkt.PacketView {
	t.Helper()
	data, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	var v netpkt.PacketView
	v.Reset(data, p.Link, p.Ts)
	return v
}

func shardView(t *testing.T, src, dst netip.Addr, sport, dport uint16) netpkt.PacketView {
	return viewOf(t, &netpkt.Packet{
		Ts:   time.Unix(0, 0),
		Eth:  &netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		IPv4: &netpkt.IPv4{TTL: 64, Src: src, Dst: dst, Protocol: netpkt.ProtoTCP},
		TCP:  &netpkt.TCP{SrcPort: sport, DstPort: dport},
	})
}

func TestShardIDBothDirectionsSameLane(t *testing.T) {
	a := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	b := netip.AddrFrom4([4]byte{10, 0, 0, 2})
	fwd := shardView(t, a, b, 40000, 80)
	rev := shardView(t, b, a, 80, 40000)
	for _, k := range []int{1, 2, 8, 64} {
		sf, sr := ShardID(&fwd, k), ShardID(&rev, k)
		if sf != sr {
			t.Errorf("k=%d: directions landed on different lanes: %d vs %d", k, sf, sr)
		}
		if sf < 0 || sf >= k {
			t.Errorf("k=%d: lane %d out of range", k, sf)
		}
	}
}

func TestShardIDNonIPRoutesToZero(t *testing.T) {
	arp := viewOf(t, &netpkt.Packet{
		Eth: &netpkt.Ethernet{EtherType: netpkt.EtherTypeARP},
		ARP: &netpkt.ARP{
			Op:       1,
			SenderIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			TargetIP: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		},
	})
	if got := ShardID(&arp, 8); got != 0 {
		t.Errorf("non-IP packet routed to lane %d, want 0", got)
	}
}

func TestChunkShardIDsAlignAndSpread(t *testing.T) {
	var views []netpkt.PacketView
	for i := 0; i < 64; i++ {
		src := netip.AddrFrom4([4]byte{10, 0, byte(i), 1})
		dst := netip.AddrFrom4([4]byte{10, 0, byte(i), 2})
		views = append(views, shardView(t, src, dst, uint16(1024+i), 80))
	}
	ck := Chunk{Views: views}
	ids := ck.ShardIDs(8, nil)
	if len(ids) != len(views) {
		t.Fatalf("got %d ids for %d packets", len(ids), len(views))
	}
	lanes := map[uint8]bool{}
	for i, id := range ids {
		if int(id) != ShardID(&views[i], 8) {
			t.Errorf("packet %d: ShardIDs=%d, ShardID=%d", i, id, ShardID(&views[i], 8))
		}
		lanes[id] = true
	}
	if len(lanes) < 2 {
		t.Errorf("64 distinct flows all hashed to %d lane(s); expected spread", len(lanes))
	}
	// Appending reuses dst.
	ids2 := ck.ShardIDs(8, ids[:0])
	if &ids2[0] != &ids[0] {
		t.Error("ShardIDs did not reuse dst capacity")
	}
}
