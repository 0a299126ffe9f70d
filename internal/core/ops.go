package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"lumen/internal/netpkt"
)

// OpFunc executes one operation. ctx gives access to fitted state for
// stateful ops (normalization, models) and the execution mode.
type OpFunc func(ctx *opCtx, in []Value, p params) (Value, error)

// opSig declares an operation's type signature for static checking.
type opSig struct {
	in  []Kind // expected input kinds, in order
	out Kind
	// variadicIn allows any number of trailing inputs of the last kind.
	variadicIn bool
}

// streamClass is how an op behaves on a chunked (RunStream) pass.
type streamClass uint8

const (
	classUnset streamClass = iota
	// classRowLocal ops stream in both modes: each output row depends
	// only on its input row, plus fold state an ordered op carries across
	// chunks in opCtx.carry.
	classRowLocal
	// classFitted ops fit global state in ModeTrain (a barrier) and apply
	// it row-locally in ModeTest, where they stream.
	classFitted
	// classFlowSink ops are fed packet by packet during the chunk loop;
	// their output materializes at flush.
	classFlowSink
	// classBarrier ops need the whole trace and always run at flush.
	classBarrier
)

// opTraits is everything the engine knows about an op beyond its type
// signature, declared once where the op is registered: the stream
// planner, the decode hint, the cache gate, -list-ops and the
// generated docs all read it from here.
type opTraits struct {
	class streamClass
	// ordered reports whether the op, given its params, carries fold
	// state across chunks and so must see them in stream order (nil:
	// never).
	ordered func(params) bool
	// decode is how deep the op looks into the packets it reads; every
	// reader of KindPackets declares one.
	decode func(params) netpkt.DecodeHint
	// stats is how many member stats of each flow the op reads, given
	// its params; a reader of KindFlows without it reads every stat (see
	// StreamPlan.StatCap).
	stats func(params) int
	// cacheable marks a stateless, mode-independent op whose whole-trace
	// results a shared Cache may serve.
	cacheable bool
	// check validates the op's params when the pipeline is type-checked
	// (nil: any params pass; the op may still refuse them when it runs).
	check func(params) error
}

// always is the ordered trait of ops whose fold state never depends on
// their params.
func always(params) bool { return true }

// headers is the decode trait of ops that read L2-L4 headers only.
func headers(params) netpkt.DecodeHint { return netpkt.DecodeHint{Headers: true} }

// streams reports whether the op can run per chunk in the given mode.
func (t opTraits) streams(mode Mode) bool {
	return t.class == classRowLocal || t.class == classFitted && mode == ModeTest
}

type opDef struct {
	sig    opSig
	traits opTraits
	run    OpFunc
	doc    string
}

// opRegistry holds every operation the framework defines. Operations are
// configurable (paper §3.2: "each operation can, in practice, support
// multiple functions"), so the ~30 registered names cover the feature
// pipelines of all 16 ported algorithms.
var opRegistry = map[string]*opDef{}

// register adds an op to the registry. An op must say how it streams:
// there is no default class to fall into by omission.
func register(name, doc string, sig opSig, traits opTraits, run OpFunc) {
	if _, dup := opRegistry[name]; dup {
		panic("core: duplicate op " + name)
	}
	if traits.class == classUnset {
		panic("core: op " + name + " declares no stream class")
	}
	opRegistry[name] = &opDef{sig: sig, traits: traits, run: run, doc: doc}
}

// Ops returns the registered operation names, sorted.
func Ops() []string {
	out := make([]string, 0, len(opRegistry))
	for n := range opRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteOpTable prints what the registrations declare, one op per line:
// signature, how it runs on a streaming pass in each mode, ordered and
// decode traits ("by params" when they depend on the op's params),
// cacheable, doc; then field_extract's fields by decode depth.
// `lumen -list-ops` prints it and DESIGN.md embeds it.
func WriteOpTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "OP\tSIGNATURE\tTRAIN\tTEST\tORDERED\tDECODE\tCACHEABLE\tDOC")
	for _, name := range Ops() {
		def := opRegistry[name]
		t := def.traits
		sig := fmt.Sprint(def.sig.in)
		if def.sig.variadicIn {
			sig += "..."
		}
		ordered, decode := "no", "-"
		if t.ordered != nil {
			ordered = "by params"
			if t.ordered(nil) {
				ordered = "yes"
			}
		}
		if t.decode != nil {
			decode = "by params"
			if h := t.decode(nil); h.Any() {
				decode = h.String()
			}
		}
		fmt.Fprintf(tw, "%s\t%s → %v\t%s\t%s\t%s\t%s\t%v\t%s\n", name, sig, def.sig.out,
			t.runs(ModeTrain), t.runs(ModeTest), ordered, decode, t.cacheable, def.doc)
	}
	fmt.Fprintln(tw, "\nfield_extract fields by decode depth:")
	for _, g := range packetFieldGroups {
		fmt.Fprintf(tw, "  %s\t%s\n", g.need, strings.Join(g.names, " "))
	}
	return tw.Flush()
}

// runs names how an op of these traits executes on a streaming pass.
func (t opTraits) runs(mode Mode) string {
	switch {
	case t.class == classFlowSink:
		return "sink"
	case t.streams(mode):
		return "stream"
	}
	return "barrier"
}

// params wraps the JSON parameter object of one op with typed accessors
// (JSON numbers arrive as float64).
type params map[string]any

func (p params) str(key, def string) string {
	if v, ok := p[key]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

func (p params) f64(key string, def float64) float64 {
	switch v := p[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	return def
}

func (p params) i(key string, def int) int {
	switch v := p[key].(type) {
	case float64:
		return int(v)
	case int:
		return v
	}
	return def
}

func (p params) b(key string, def bool) bool {
	if v, ok := p[key].(bool); ok {
		return v
	}
	return def
}

func (p params) strList(key string) []string {
	switch v := p[key].(type) {
	case []string:
		return v
	case []any:
		out := make([]string, 0, len(v))
		for _, e := range v {
			if s, ok := e.(string); ok {
				out = append(out, s)
			}
		}
		return out
	}
	return nil
}

// anyList returns the raw list value (for structured params like
// aggregate specs).
func (p params) anyList(key string) []any {
	if v, ok := p[key].([]any); ok {
		return v
	}
	return nil
}

func asFrame(v Value) (*Frame, error) {
	f, ok := v.(*Frame)
	if !ok {
		return nil, fmt.Errorf("core: expected frame, got %v", v.Kind())
	}
	return f, nil
}

func asPackets(v Value) (Packets, error) {
	pk, ok := v.(Packets)
	if !ok {
		return Packets{}, fmt.Errorf("core: expected packets, got %v", v.Kind())
	}
	return pk, nil
}
