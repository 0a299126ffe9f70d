// Command lumend is the resident detection daemon: it keeps the trained
// streaming pipelines one config file declares (internal/daemon) scoring
// live packet sources, writes JSONL alerts and Zeek-style conn-logs, and
// serves /metrics, /trace and /pipelines with drain/reload/swap verbs.
//
//	lumend -config lumend.json           # boot every declared pipeline
//	lumend -config lumend.json -check    # type-check, print the stream plans, exit
//
// Template, model, source, stream shape, sinks, swap and retrain policy
// are keys of the file: OPERATIONS.md lists them, examples/*/lumend.json
// are working files. SIGINT/SIGTERM drain gracefully: sources stop,
// ingested packets are scored, sinks flush, a summary is printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sync"
	"syscall"

	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/obs"
)

func main() {
	var o options
	flags(&o).Parse(os.Args[1:])
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(o, os.Stdout, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "lumend:", err)
		os.Exit(1)
	}
}

// traceSpans bounds the spans lumend's tracer keeps, the most recent
// ones: a daemon runs indefinitely, and every chunk of every pass adds
// a few. At about 450 B a span that is some 4.5 MB.
const traceSpans = 10000

// options holds the process-level flags; per-pipeline settings are file keys.
type options struct {
	config, listen, traceOut, metricsOut string
	check                                bool
}

// flags declares the whole command line (README.md "lumend flags" is
// pinned to it by TestREADMEFlagTable).
func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("lumend", flag.ExitOnError)
	fs.StringVar(&o.config, "config", "", "daemon config file: a JSON document declaring every pipeline (keys in OPERATIONS.md) (required)")
	fs.BoolVar(&o.check, "check", false, "load and type-check every pipeline, print each stream plan with the reason it answers only at drain, and exit")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8787", "HTTP address for /metrics, /trace, /pipelines (empty = disabled)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON to this file on exit")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write Prometheus text-format metrics to this file on exit")
	return fs
}

// check prints, per pipeline, the plan a resident pass would run.
func check(cfg *daemon.FileConfig, w io.Writer) error {
	engs, err := cfg.Engines()
	for i := 0; i < len(engs) && err == nil; i++ {
		var plan *core.StreamPlan
		if plan, err = engs[i].StreamPlan(core.ModeTest); err == nil {
			when := "every op streams"
			if b := plan.Barrier; b != nil {
				when = fmt.Sprintf("verdicts wait for drain behind op %d %s: %s", b.Index, b.Func, b.Reason)
			} else if k := slices.Index(plan.Stage, core.StageClose); k >= 0 {
				when = fmt.Sprintf("verdicts come as flows close, from op %d %s on", k, engs[i].P.Ops[k].Func)
			}
			fmt.Fprintf(w, "lumend: pipeline %q ok: %s units, decode %s; %s\n",
				cfg.Pipelines[i].Name, engs[i].P.Granularity, plan.Decode, when)
		}
	}
	return err
}

// run boots the daemon the config file declares, waits for the pipelines
// to finish or for a signal, drains, and writes the exit dumps. w
// receives all operator-facing prints. Every pipeline is built, and the
// HTTP address bound, before the first one starts; whatever did start is
// drained on every way out.
func run(o options, w io.Writer, sigs <-chan os.Signal) error {
	data, err := os.ReadFile(o.config)
	if err != nil {
		return err
	}
	cfg, err := daemon.ParseConfig(data, filepath.Dir(o.config))
	if err != nil {
		return err
	}
	if o.check {
		return check(cfg, w)
	}
	out := &syncWriter{w: w}
	d := daemon.New(daemon.Config{Metrics: obs.NewMetrics(), Tracer: obs.NewBoundedTracer(traceSpans)})
	built, release, err := cfg.Build(d.Metrics(), out)
	if err != nil {
		return err
	}
	var swaps sync.WaitGroup
	defer release()
	defer swaps.Wait()
	defer d.DrainAll()
	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: d.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "lumend: http on http://%s (/metrics /trace /pipelines)\n", ln.Addr())
	}

	allDone := make(chan struct{})
	for i, pc := range built {
		p, err := d.Start(pc)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "lumend: pipeline %q running (source %s)\n", pc.Name, pc.Source.Meta().Name)
		if s := cfg.Pipelines[i]; s.Swap.Model != "" {
			swaps.Add(1)
			go scriptedSwap(p, s.Swap, out, &swaps)
		}
	}
	go func() {
		for _, p := range d.Pipes() {
			<-p.Done()
		}
		close(allDone)
	}()
	select {
	case <-allDone:
	case s := <-sigs:
		fmt.Fprintf(out, "lumend: %v — draining\n", s)
	}
	failed := d.DrainAll()

	for _, st := range d.Status() {
		fmt.Fprintf(out, "lumend: pipeline %q %s: passes=%d chunks=%d packets=%d verdicts=%d alerts=%d gen=%d\n",
			st.Name, st.State, st.Passes, st.Chunks, st.Packets, st.Verdicts, st.Alerts, st.ModelGeneration)
		if st.LastSwap != nil {
			fmt.Fprintf(out, "lumend: pipeline %q swap %s by %s: chunks=%d rows=%d disagree=%.4f score_mad=%.4f\n",
				st.Name, st.LastSwap.Outcome, st.LastSwap.By, st.LastSwap.Chunks, st.LastSwap.Rows,
				st.LastSwap.DisagreeFrac, st.LastSwap.ScoreMAD)
		}
	}
	if o.traceOut != "" {
		if err := d.Tracer().WriteChromeTraceFile(o.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "lumend: wrote Chrome trace to %s (%d older spans dropped)\n", o.traceOut, d.Tracer().Dropped())
	}
	if o.metricsOut != "" {
		if err := d.Metrics().WritePrometheusFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Fprintln(out, "lumend: wrote Prometheus metrics to", o.metricsOut)
	}
	return failed
}

// scriptedSwap starts the file's `swap.model` hot swap at the pipeline's
// first chunk boundary and reports that it is shadowing. Runs on its own
// goroutine per pipeline; a pipeline that stops first needs no report.
func scriptedSwap(p *daemon.Pipe, s daemon.SwapSpec, out io.Writer, done *sync.WaitGroup) {
	defer done.Done()
	switch err := p.SwapFromFile(s.Model, s.SwapOptions); {
	case err == nil:
		fmt.Fprintf(out, "lumend: pipeline %q shadow-scoring %s\n", p.Name(), s.Model)
	case !errors.Is(err, daemon.ErrStopped):
		fmt.Fprintf(out, "lumend: pipeline %q scripted swap: %v\n", p.Name(), err)
	}
}

// syncWriter serializes run's prints and the pipeline goroutines' alert
// writes onto one shared stream (stdout).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}
