package core

// stream_fast.go is the plan-time side of lazy decoding. Every source
// emits netpkt.PacketView chunks, whose layers decode on first touch;
// before a RunStream pass pulls its first chunk, viewHint walks the
// planned ops and derives the decode depth the pipeline will actually
// touch, and sources that implement dataset.ViewSource apply it as they
// cut chunks — on the source goroutine, overlapping downstream compute.
// Layers no op needs are never parsed at all. See DESIGN.md "Packet
// representation".

import (
	"strings"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

// viewHint derives how deep the planned stream looks into its packets:
// the union over every reader of the raw chunk. It is an optimization
// only — a reader the switch does not know still decodes on demand.
func (e *Engine) viewHint(pl *streamPlan) netpkt.DecodeHint {
	var hint netpkt.DecodeHint
	for i, op := range e.P.Ops {
		readsInput := false
		for _, in := range op.Input {
			if in == InputName {
				readsInput = true
			}
		}
		if !readsInput {
			continue
		}
		if pl.flowSink[i] {
			// Flow sinks consume PacketSummary values; building the
			// five-tuple needs the L2-L4 headers.
			hint.Headers = true
			continue
		}
		switch op.Func {
		case "field_extract":
			for _, f := range params(op.Params).strList("fields") {
				switch {
				case f == "ts" || f == "iat" || f == "len":
					// Metadata-only: needs no decoding at all.
				case f == "dns_qr" || f == "dns_qd":
					hint.Headers = true
					hint.Apps |= netpkt.AppDNS
				case f == "is_http" || strings.HasPrefix(f, "http_"):
					hint.Headers = true
					hint.Apps |= netpkt.AppHTTP
				case f == "is_mqtt" || strings.HasPrefix(f, "mqtt_"):
					hint.Headers = true
					hint.Apps |= netpkt.AppMQTT
				default:
					hint.Headers = true
				}
			}
		case "nprint", "kitsune_features", "dot11_features":
			hint.Headers = true
		}
	}
	return hint
}

// predecode hands the plan's decode hint to sources that can apply it
// while cutting chunks. It must run before the first chunk is pulled.
func (r *streamExec) predecode(src dataset.Source) {
	if vs, ok := src.(dataset.ViewSource); ok {
		vs.ConfigureViews(true, r.e.viewHint(r.pl))
	}
}

// countDecode feeds the decode counters for one absorbed chunk: every
// packet, and the subset whose header decode never ran (the plan needed
// nothing beyond record metadata).
func (r *streamExec) countDecode(views []netpkt.PacketView) {
	if r.e.Metrics == nil || len(views) == 0 {
		return
	}
	skips := 0
	for i := range views {
		if !views[i].HeadersDecoded() {
			skips++
		}
	}
	r.e.Metrics.Counter("lumen_decode_packets_total",
		"Packets delivered to streaming runs (every source emits lazy views).").Add(uint64(len(views)))
	if skips > 0 {
		r.e.Metrics.Counter("lumen_decode_lazy_skips_total",
			"Packets whose L2-L4 header decode was never needed and so never ran.").Add(uint64(skips))
	}
}
