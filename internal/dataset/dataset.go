// Package dataset synthesizes the benchmark corpora standing in for the 15
// public datasets the paper evaluates on (CICIDS 2017/2019 days, CTU IoT
// scenarios, IEEE IoT, Kitsune captures, AWID3). Each dataset is produced
// by a deterministic IoT traffic simulator: device behaviour models emit
// benign sessions, attack injectors overlay labelled malicious traffic,
// and the result is a time-ordered packet trace with ground truth at the
// same classification granularity as the real corpus.
//
// The substitution is documented in DESIGN.md: the paper's findings are
// about relative behaviour across algorithms and datasets, which the
// simulator preserves by reproducing the traffic properties the ported
// feature pipelines key on (rates, inter-arrival regularity, port/flag
// entropy, flow size distributions, protocol mix) and varying device
// mixes, address plans and attack parameters across datasets the way the
// real corpora differ.
package dataset

import (
	"fmt"
	"sort"
	"time"

	"lumen/internal/netpkt"
)

// Granularity declares what unit the ground-truth labels of a dataset (or
// the classifications of an algorithm) apply to. Coarser granularities
// have higher values, so an algorithm can faithfully run on any dataset
// with granularity >= its own (paper §2.1: a packet-level algorithm can
// train on flow labels by propagation, but not the other way around).
type Granularity int

// Classification granularities, fine to coarse.
const (
	Packet Granularity = iota
	UniflowG
	ConnectionG
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case Packet:
		return "packet"
	case UniflowG:
		return "uniflow"
	case ConnectionG:
		return "connection"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// ParseGranularity returns the granularity String names, and false for
// any other name.
func ParseGranularity(s string) (Granularity, bool) {
	for g := Packet; g <= ConnectionG; g++ {
		if g.String() == s {
			return g, true
		}
	}
	return 0, false
}

// CanFaithfullyRun reports whether an algorithm classifying at alg
// granularity can be trained/tested on labels at ds granularity without
// modifying the ground truth.
func CanFaithfullyRun(alg, ds Granularity) bool { return ds >= alg }

// Attack names used across the registry (the columns of Fig. 5).
const (
	AttackSYNFlood    = "dos-synflood"
	AttackHTTPFlood   = "dos-httpflood"
	AttackUDPFlood    = "ddos-udpflood"
	AttackDNSAmp      = "ddos-dnsamp"
	AttackPortScan    = "portscan"
	AttackOSScan      = "osscan"
	AttackBruteSSH    = "bruteforce-ssh"
	AttackBruteTelnet = "bruteforce-telnet"
	AttackMirai       = "botnet-mirai"
	AttackTorii       = "botnet-torii"
	AttackARPMitM     = "mitm-arp"
	AttackExfil       = "exfiltration"
	AttackWebAttack   = "web-attack"
	AttackDeauth      = "wifi-deauth"
	AttackEvilTwin    = "wifi-eviltwin"
)

// Record is one captured packet, as a pcap record holds it: its
// timestamp and wire bytes, in the dataset's link type. Readers parse
// the bytes through a netpkt.PacketView.
type Record struct {
	Ts   time.Time
	Data []byte
}

// Labeled is a labelled capture: a time-ordered packet trace with
// per-packet ground truth. For connection-granularity datasets every
// packet of a connection carries the same label, matching how the real
// corpora are labelled per flow.
type Labeled struct {
	Name        string
	Granularity Granularity
	Link        netpkt.LinkType
	Packets     []*Record
	Labels      []int    // 0 benign, 1 malicious, aligned with Packets
	Attacks     []string // attack name per packet, "" for benign
	// Devices maps a local endpoint (IP or MAC string) to its device
	// kind (camera, plug, sensor, ...), enabling the device-classification
	// task of the paper's §6 extension.
	Devices map[string]string
}

// MaliciousFraction returns the fraction of packets labelled malicious.
func (l *Labeled) MaliciousFraction() float64 {
	if len(l.Labels) == 0 {
		return 0
	}
	n := 0
	for _, v := range l.Labels {
		n += v
	}
	return float64(n) / float64(len(l.Labels))
}

// AttackSet returns the distinct attack names present, sorted.
func (l *Labeled) AttackSet() []string {
	seen := map[string]bool{}
	for _, a := range l.Attacks {
		if a != "" {
			seen[a] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// DeviceClassTask relabels a dataset for the device-classification task
// of the paper's §6 ("if we were to extend our framework to do ML-based
// device classification, we would only need to add a new dataset ... and
// the rest of the functions/modules would be used directly"): each
// packet's class is its source device's kind, with class 0 ("external")
// for packets from endpoints outside the monitored site. It returns the
// class names (index = class id) and the per-packet class labels.
func DeviceClassTask(l *Labeled) (classes []string, y []int) {
	classes = []string{"external"}
	index := map[string]int{"external": 0}
	y = make([]int, len(l.Packets))
	var v netpkt.PacketView
	for i, p := range l.Packets {
		v.Reset(p.Data, l.Link, p.Ts)
		var key string
		if a := v.SrcIP(); a.IsValid() {
			key = a.String()
		} else if d, ok := v.Dot11(); ok {
			key = d.Addr2.String()
		}
		kind, ok := l.Devices[key]
		if !ok {
			y[i] = 0
			continue
		}
		ci, seen := index[kind]
		if !seen {
			ci = len(classes)
			index[kind] = ci
			classes = append(classes, kind)
		}
		y[i] = ci
	}
	return classes, y
}

// Spec describes one registered dataset.
type Spec struct {
	ID          string
	Desc        string
	Granularity Granularity
	Link        netpkt.LinkType
	// Attacks lists the attack types the generator injects.
	Attacks []string
	// Generate builds the dataset at the given scale (1.0 = default
	// size); generation is deterministic per dataset.
	Generate func(scale float64) *Labeled
}

// Registry returns every registered dataset spec in ID order: F0–F9 are
// connection-granularity, P0–P4 packet-granularity (paper §5.1: "ten
// connection-level classification datasets and five packet-level").
func Registry() []Spec { return registry() }

// Get looks a spec up by ID.
func Get(id string) (Spec, bool) {
	for _, s := range registry() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// Merge builds a combined dataset from frac of each input — the Fig. 6
// merged-training construction ("10% of data from each dataset"). The
// sample is drawn per flow, not per leading packet: packets are grouped
// by canonical five-tuple (non-IP packets form singleton groups) and
// every k-th flow is taken in order of first appearance, so the sample
// spans the whole capture, covers every attack phase, and keeps flows
// intact for connection-level feature extraction. frac >= 1 keeps
// everything.
func Merge(name string, frac float64, parts ...*Labeled) *Labeled {
	out := &Labeled{Name: name}
	if len(parts) == 0 {
		return out
	}
	out.Granularity = parts[0].Granularity
	out.Link = parts[0].Link
	out.Devices = map[string]string{}
	for _, p := range parts {
		if p.Granularity < out.Granularity {
			out.Granularity = p.Granularity
		}
		for k, v := range p.Devices {
			out.Devices[k] = v
		}
		for _, i := range sampleFlowIndices(p, frac) {
			out.Packets = append(out.Packets, p.Packets[i])
			out.Labels = append(out.Labels, p.Labels[i])
			out.Attacks = append(out.Attacks, p.Attacks[i])
		}
	}
	out.sortByTime()
	return out
}

// sampleFlowIndices returns the packet indices of every k-th flow
// (k = round(1/frac)) of the dataset, in time order.
func sampleFlowIndices(p *Labeled, frac float64) []int {
	if frac >= 1 {
		all := make([]int, len(p.Packets))
		for i := range all {
			all[i] = i
		}
		return all
	}
	if frac <= 0 {
		return nil
	}
	stride := int(1/frac + 0.5)
	if stride < 1 {
		stride = 1
	}
	order := []int{} // group ids in first-appearance order
	groups := map[netpkt.FiveTuple]int{}
	members := [][]int{}
	var v netpkt.PacketView
	for i, pkt := range p.Packets {
		v.Reset(pkt.Data, p.Link, pkt.Ts)
		ft, ok := v.Tuple()
		if !ok {
			order = append(order, len(members))
			members = append(members, []int{i})
			continue
		}
		key := ft.Canonical()
		gi, seen := groups[key]
		if !seen {
			gi = len(members)
			groups[key] = gi
			order = append(order, gi)
			members = append(members, nil)
		}
		members[gi] = append(members[gi], i)
	}
	var idx []int
	for n, gi := range order {
		if n%stride != 0 {
			continue
		}
		idx = append(idx, members[gi]...)
	}
	sort.Ints(idx)
	return idx
}

// sortByTime restores global time order (flow assembly requires it) while
// keeping labels aligned.
func (l *Labeled) sortByTime() {
	idx := make([]int, len(l.Packets))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return l.Packets[idx[a]].Ts.Before(l.Packets[idx[b]].Ts)
	})
	pk := make([]*Record, len(idx))
	lb := make([]int, len(idx))
	at := make([]string, len(idx))
	for to, from := range idx {
		pk[to] = l.Packets[from]
		lb[to] = l.Labels[from]
		at[to] = l.Attacks[from]
	}
	l.Packets, l.Labels, l.Attacks = pk, lb, at
}
