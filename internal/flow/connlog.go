package flow

import (
	"io"
	"math"
	mathbits "math/bits"
	"net/netip"
	"strconv"
	"time"

	"lumen/internal/netpkt"
)

// connLogHeader names the columns of WriteConnLog, Zeek's defaults.
const connLogHeader = "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\tduration\torig_bytes\tresp_bytes\tconn_state\torig_pkts\tresp_pkts\n"

// WriteConnLog renders connections in Zeek conn.log TSV form (the format
// the paper's dataset preprocessing is built around: "we use Zeek to
// split large packet capture into corresponding flows"). Columns follow
// Zeek's defaults: ts, uid, id.orig_h, id.orig_p, id.resp_h, id.resp_p,
// proto, duration, orig_bytes, resp_bytes, conn_state, orig_pkts,
// resp_pkts.
func WriteConnLog(w io.Writer, conns []*Connection) error {
	return NewConnLogWriter(w).Log(conns)
}

// connLogBuf is the size of a ConnLogWriter's buffer, and connLogFlush
// the fill at which it is handed on: room for one more line of any
// address family past it.
const (
	connLogBuf   = 16 << 10
	connLogFlush = connLogBuf - 512
)

// ConnLogWriter writes one conn.log section a batch of connections at a
// time, as a Zeek process logs each connection when it closes: the
// header once, then every batch's rows with uids numbered on from the
// batches before. The section equals WriteConnLog over the batches
// joined, byte for byte.
type ConnLogWriter struct {
	w      io.Writer
	buf    []byte
	rows   int // rows written: the next row's uid
	header bool
}

// NewConnLogWriter returns a writer of a new section on w.
func NewConnLogWriter(w io.Writer) *ConnLogWriter {
	return &ConnLogWriter{w: w, buf: make([]byte, 0, connLogBuf)}
}

// Log writes conns, in order, as the section's next rows, after the
// header on the first call, which may pass none. Each call hands
// everything it rendered to the underlying writer before it returns.
func (cw *ConnLogWriter) Log(conns []*Connection) error {
	if !cw.header {
		cw.buf, cw.header = append(cw.buf, connLogHeader...), true
	}
	for _, c := range conns {
		cw.buf = appendConnLogLine(cw.buf, cw.rows, c)
		cw.rows++
		if len(cw.buf) >= connLogFlush {
			if err := cw.flush(); err != nil {
				return err
			}
		}
	}
	return cw.flush()
}

func (cw *ConnLogWriter) flush() error {
	if len(cw.buf) == 0 {
		return nil
	}
	_, err := cw.w.Write(cw.buf)
	cw.buf = cw.buf[:0]
	return err
}

// appendConnLogLine appends connection c's row, the i-th of its log:
// byte for byte what
// "%.6f\tC%08d\t%s\t%d\t%s\t%d\t%s\t%.6f\t%d\t%d\t%s\t%d\t%d\n" prints.
func appendConnLogLine(b []byte, i int, c *Connection) []byte {
	b = appendFixed6(b, float64(c.First.UnixNano())/1e9)
	b = append(b, "\tC"...)
	var num [20]byte
	uid := strconv.AppendInt(num[:0], int64(i), 10)
	if len(uid) < 8 {
		b = append(b, "00000000"[len(uid):]...)
	}
	b = append(b, uid...)
	b = appendAddr(append(b, '\t'), c.Tuple.SrcIP)
	b = strconv.AppendUint(append(b, '\t'), uint64(c.Tuple.SrcPort), 10)
	b = appendAddr(append(b, '\t'), c.Tuple.DstIP)
	b = strconv.AppendUint(append(b, '\t'), uint64(c.Tuple.DstPort), 10)
	b = appendProto(append(b, '\t'), c.Tuple.Proto)
	b = appendFixed6(append(b, '\t'), c.Duration().Seconds())
	b = strconv.AppendInt(append(b, '\t'), int64(c.OrigBytes), 10)
	b = strconv.AppendInt(append(b, '\t'), int64(c.RespBytes), 10)
	b = append(append(b, '\t'), c.State...)
	b = strconv.AppendInt(append(b, '\t'), int64(c.OrigPkts), 10)
	b = strconv.AppendInt(append(b, '\t'), int64(c.RespPkts), 10)
	return append(b, '\n')
}

// appendFixed6 appends v as strconv.AppendFloat(b, v, 'f', 6, 64) does.
// strconv renders every 'f' float through its arbitrary-precision
// decimal; a positive normal double below 2^63 / 10^6 needs none of
// that: v is m * 2^-k exactly, so v * 10^6 is one 128-bit product and a
// shift, rounded half to even like strconv's decimal.
func appendFixed6(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits >> 52) // sign and biased exponent
	k := 1075 - exp        // v = m * 2^-k
	if exp == 0 || exp >= 0x7ff || k < 1 || k > 127 {
		if bits == 0 {
			return append(b, "0.000000"...)
		}
		// Negative, subnormal, non-finite, integral past 2^52 or below
		// 2^-75 (which prints as zero all the same).
		return strconv.AppendFloat(b, v, 'f', 6, 64)
	}
	m := bits&(1<<52-1) | 1<<52
	hi, lo := mathbits.Mul64(m, 1e6)
	// q = (hi:lo) >> k, with rem the bits shifted out and half their
	// top bit's weight.
	var q, rem, remHi, half, halfHi uint64
	if k < 64 {
		if hi>>(k-1) != 0 {
			return strconv.AppendFloat(b, v, 'f', 6, 64) // quotient past 63 bits
		}
		q = hi<<(64-k) | lo>>k
		rem, half = lo&(1<<k-1), 1<<(k-1)
	} else {
		q = hi >> (k - 64)
		remHi, rem = hi&(1<<(k-64)-1), lo
		if k == 64 {
			half = 1 << 63
		} else {
			halfHi = 1 << (k - 65)
		}
	}
	if remHi > halfHi || remHi == halfHi && (rem > half || rem == half && q&1 == 1) {
		q++
	}
	b = strconv.AppendUint(b, q/1e6, 10)
	frac := q % 1e6
	return append(b, '.',
		byte('0'+frac/100000), byte('0'+frac/10000%10), byte('0'+frac/1000%10),
		byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendAddr appends ip as its String method renders it.
func appendAddr(b []byte, ip netip.Addr) []byte {
	if !ip.IsValid() {
		return append(b, "invalid IP"...)
	}
	return ip.AppendTo(b)
}

func appendProto(b []byte, p uint8) []byte {
	switch p {
	case netpkt.ProtoTCP:
		return append(b, "tcp"...)
	case netpkt.ProtoUDP:
		return append(b, "udp"...)
	case netpkt.ProtoICMP:
		return append(b, "icmp"...)
	default:
		return strconv.AppendUint(append(b, "proto-"...), uint64(p), 10)
	}
}

// MatchByTime pairs each connection in a with the connection in b whose
// start time is closest within tolerance — the CTU preprocessing step
// ("matched our Zeek-flows with the labeled Zeek-flows provided in the
// dataset based on flow timestamps"). It returns, for every connection
// of a, the index of its match in b or -1.
func MatchByTime(a, b []*Connection, tolerance time.Duration) []int {
	out := make([]int, len(a))
	for i := range out {
		out[i] = -1
	}
	// b is time-sorted (Connections returns sorted flows): binary scan.
	for i, ca := range a {
		lo, hi := 0, len(b)
		for lo < hi {
			mid := (lo + hi) / 2
			if b[mid].First.Before(ca.First) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		best, bestD := -1, tolerance
		for _, j := range []int{lo - 1, lo} {
			if j < 0 || j >= len(b) {
				continue
			}
			d := b[j].First.Sub(ca.First)
			if d < 0 {
				d = -d
			}
			if d <= bestD {
				best, bestD = j, d
			}
		}
		out[i] = best
	}
	return out
}
