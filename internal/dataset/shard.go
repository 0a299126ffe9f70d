package dataset

import "lumen/internal/netpkt"

// ShardID returns the shard lane in [0, k) that owns packet v when flow
// state is partitioned across k lanes. The lane is derived from the
// stable hash of the packet's direction-normalized five-tuple, so every
// packet of a flow — in either direction — lands on the same lane.
// Packets without a network layer (ARP, 802.11 management frames) have
// no flow and deterministically route to lane 0. For k > 1 the tuple read
// decodes the L2-L4 headers when they have not been touched yet, so
// afterwards the view's header accessors are side-effect-free — which is
// what lets shard lanes read a routed chunk's views concurrently.
func ShardID(v *netpkt.PacketView, k int) int {
	if k <= 1 {
		return 0
	}
	ft, ok := v.Tuple()
	if !ok {
		return 0
	}
	return int(ft.ShardHash() % uint64(k))
}

// ShardIDs appends the shard lane of every packet in the chunk to dst
// (reusing its capacity) and returns the extended slice. k must be at
// most 256 so a lane fits in a byte.
func (c Chunk) ShardIDs(k int, dst []uint8) []uint8 {
	for i := range c.Views {
		dst = append(dst, uint8(ShardID(&c.Views[i], k)))
	}
	return dst
}
