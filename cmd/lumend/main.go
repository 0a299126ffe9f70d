// Command lumend is the resident detection daemon: it keeps one or more
// trained streaming pipelines (internal/daemon) scoring live packet
// sources, writes JSONL alerts and Zeek-style conn-logs, serves the
// operational HTTP surface (/metrics, /trace, /pipelines with
// drain/reload/swap control verbs), and supports atomic hot swap of a
// newly trained model with shadow-scored divergence reporting.
//
// Usage:
//
//	lumend -pipeline p.json -train F1 -replay capture.pcap           # replay a capture at full speed
//	lumend -pipeline p.json -model m.json -replay c.pcap -speed 1    # wire-speed pacing
//	lumend -pipeline p.json -model m.json -listen-feed :9999         # framed live feed
//	lumend -pipeline p.json -model m.json -watch /var/spool/pcaps    # rotated-capture directory
//	lumend ... -swap-model candidate.json -swap-after-chunks 8       # scripted hot swap
//	lumend ... -retrain -retrain-fresh -replay-delay 10ms            # drift-triggered retrain loop
//
// The daemon drains gracefully on SIGINT/SIGTERM: sources stop
// producing, ingested packets are scored to completion, conn-logs and
// alert sinks are flushed, and a per-pipeline summary is printed.
// OPERATIONS.md is the operator guide for this binary.
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
	"strings"
	"sync"
	"syscall"
	"time"

	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

func main() {
	opts := parseFlags(os.Args[1:], flag.ExitOnError)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(opts, os.Stdout, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "lumend:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set. Keeping it a plain struct lets tests
// drive run directly.
type options struct {
	pipeline string
	pipes    int
	seed     int64

	replay        string
	replayDataset string
	replayScale   float64
	speed         float64
	replayDelay   time.Duration
	listenFeed    string
	watch         string
	watchGlob     string
	watchPoll     time.Duration
	link          string

	model      string
	train      string
	trainScale float64

	chunkRows  int
	chunkBytes int
	depth      int
	workers    int

	alerts        string
	anomaliesOnly bool
	connlog       string

	listen string

	swapModel    string
	swapAfter    int
	shadowChunks int
	maxDisagree  float64
	swapAuto     bool

	retrain          bool
	retrainReservoir int
	retrainMinRows   int
	retrainCooldown  int
	retrainFresh     bool

	traceOut   string
	metricsOut string
}

// parseFlags builds the lumend flag set. The help strings double as the
// flag reference in README.md — keep them in sync.
func parseFlags(args []string, onErr flag.ErrorHandling) options {
	var o options
	fs := flag.NewFlagSet("lumend", onErr)
	fs.StringVar(&o.pipeline, "pipeline", "", "pipeline template JSON file (required)")
	fs.IntVar(&o.pipes, "pipes", 1, "concurrent pipeline replicas (replay ingest only)")
	fs.Int64Var(&o.seed, "seed", 7, "random seed")
	fs.StringVar(&o.replay, "replay", "", "pcap file to replay")
	fs.StringVar(&o.replayDataset, "replay-dataset", "", "registry dataset ID to replay (F0-F9, P0-P4); a comma-separated list replays the datasets back to back on a continued timeline (a drifting stream)")
	fs.Float64Var(&o.replayScale, "replay-scale", 1.0, "dataset scale for -replay-dataset")
	fs.Float64Var(&o.speed, "speed", 0, "replay pacing as a multiple of capture speed (0 = unpaced)")
	fs.DurationVar(&o.replayDelay, "replay-delay", 0, "fixed per-chunk replay delay, ignoring capture timestamps (0 = unpaced; alternative to -speed)")
	fs.StringVar(&o.listenFeed, "listen-feed", "", "listen for framed packets on host:port or unix:/path")
	fs.StringVar(&o.watch, "watch", "", "directory to watch for rotated pcap captures")
	fs.StringVar(&o.watchGlob, "watch-glob", "*.pcap", "filename glob for -watch")
	fs.DurationVar(&o.watchPoll, "watch-poll", 500*time.Millisecond, "poll interval for -watch")
	fs.StringVar(&o.link, "link", "ethernet", "link type of -listen-feed frames (ethernet, dot11)")
	fs.StringVar(&o.model, "model", "", "persisted model JSON to install (instead of -train)")
	fs.StringVar(&o.train, "train", "", "registry dataset ID to train on (F0-F9, P0-P4)")
	fs.Float64Var(&o.trainScale, "train-scale", 1.0, "dataset scale for -train")
	fs.IntVar(&o.chunkRows, "chunk-rows", 512, "max packets per stream chunk")
	fs.IntVar(&o.chunkBytes, "chunk-bytes", 0, "max bytes per stream chunk (0 = unbounded)")
	fs.IntVar(&o.depth, "depth", 0, "stream pipeline prefetch depth (0 = sequential)")
	fs.IntVar(&o.workers, "workers", 0, "stream feature-stage workers (0 or 1 = one worker; >1 implies the staged loop)")
	fs.StringVar(&o.alerts, "alerts", "-", "JSONL alert sink: file path, - for stdout, empty to disable")
	fs.BoolVar(&o.anomaliesOnly, "anomalies-only", false, "only write alert lines for units predicted anomalous")
	fs.StringVar(&o.connlog, "connlog", "", "write a Zeek-style conn-log TSV to this file at drain")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8787", "HTTP address for /metrics, /trace, /pipelines (empty = disabled)")
	fs.StringVar(&o.swapModel, "swap-model", "", "hot-swap this persisted model in once scoring is underway")
	fs.IntVar(&o.swapAfter, "swap-after-chunks", 4, "chunks to score before starting the scripted swap")
	fs.IntVar(&o.shadowChunks, "shadow-chunks", 8, "chunks to shadow-score before the swap decision")
	fs.Float64Var(&o.maxDisagree, "max-disagree", 0, "max disagreement fraction for an automatic promote")
	fs.BoolVar(&o.swapAuto, "swap-auto", true, "decide the swap automatically after the shadow window")
	fs.BoolVar(&o.retrain, "retrain", false, "retrain in the background when the pipeline's drift_detect op fires and hot-swap the result through the shadow gate")
	fs.IntVar(&o.retrainReservoir, "retrain-reservoir", 4096, "labelled-row reservoir capacity for -retrain")
	fs.IntVar(&o.retrainMinRows, "retrain-min-rows", 256, "smallest reservoir fill that permits a -retrain refit")
	fs.IntVar(&o.retrainCooldown, "retrain-cooldown", 32, "minimum chunks between -retrain triggers")
	fs.BoolVar(&o.retrainFresh, "retrain-fresh", false, "flush the reservoir on each drift trigger so the refit sees only post-drift rows")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON to this file on exit")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write Prometheus text-format metrics to this file on exit")
	fs.Parse(args)
	return o
}

// validate rejects inconsistent flag combinations before anything runs.
func (o *options) validate() error {
	if o.pipeline == "" {
		return errors.New("-pipeline is required")
	}
	ingests := 0
	for _, v := range []string{o.replay, o.replayDataset, o.listenFeed, o.watch} {
		if v != "" {
			ingests++
		}
	}
	if ingests != 1 {
		return errors.New("need exactly one ingest: -replay, -replay-dataset, -listen-feed, or -watch")
	}
	if (o.model != "") == (o.train != "") {
		return errors.New("need exactly one model source: -model or -train")
	}
	if o.pipes < 1 {
		return errors.New("-pipes must be at least 1")
	}
	if o.pipes > 1 && o.replay == "" && o.replayDataset == "" {
		return errors.New("-pipes > 1 requires replay ingest (-replay or -replay-dataset)")
	}
	if o.speed > 0 && o.replayDelay > 0 {
		return errors.New("-speed and -replay-delay are mutually exclusive")
	}
	if _, err := linkType(o.link); err != nil {
		return err
	}
	return nil
}

// linkType maps the -link flag to a netpkt link type.
func linkType(name string) (netpkt.LinkType, error) {
	switch name {
	case "ethernet":
		return netpkt.LinkEthernet, nil
	case "dot11":
		return netpkt.LinkDot11, nil
	default:
		return 0, fmt.Errorf("unknown -link %q (want ethernet or dot11)", name)
	}
}

// run boots the daemon described by opts, waits for the pipelines to
// finish or for a signal, drains, and writes the exit dumps. out
// receives all operator-facing prints.
func run(o options, out io.Writer, sigs <-chan os.Signal) error {
	if err := o.validate(); err != nil {
		return err
	}
	pl, err := core.LoadPipeline(o.pipeline)
	if err != nil {
		return err
	}
	if o.swapModel != "" {
		// Fail fast on an unreadable swap candidate instead of surprising
		// the operator minutes into the run.
		if _, err := mlkit.LoadModel(o.swapModel); err != nil {
			return fmt.Errorf("-swap-model: %w", err)
		}
	}

	d := daemon.New(daemon.Config{Metrics: obs.NewMetrics(), Tracer: obs.NewTracer()})
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()

	var trainDS *dataset.Labeled
	if o.train != "" {
		spec, ok := dataset.Get(o.train)
		if !ok {
			return fmt.Errorf("unknown dataset %q", o.train)
		}
		trainDS = spec.Generate(o.trainScale)
		fmt.Fprintf(out, "lumend: training pipeline %q on %s (%d packets)\n", pl.Name, trainDS.Name, len(trainDS.Packets))
	}

	var replayDS *dataset.Labeled
	switch {
	case o.replay != "":
		if replayDS, err = loadPcap(o.replay); err != nil {
			return err
		}
	case o.replayDataset != "":
		var parts []*dataset.Labeled
		for _, id := range strings.Split(o.replayDataset, ",") {
			id = strings.TrimSpace(id)
			spec, ok := dataset.Get(id)
			if !ok {
				return fmt.Errorf("unknown dataset %q", id)
			}
			parts = append(parts, spec.Generate(o.replayScale))
		}
		if replayDS, err = dataset.Concat(parts...); err != nil {
			return err
		}
	}

	stream := core.StreamConfig{
		ChunkRows:     o.chunkRows,
		ChunkBytes:    o.chunkBytes,
		PipelineDepth: o.depth,
		Workers:       o.workers,
	}
	stdout := &syncWriter{w: out}
	pipes := make([]*daemon.Pipe, 0, o.pipes)
	for i := 0; i < o.pipes; i++ {
		name := pl.Name
		if name == "" {
			name = "pipeline"
		}
		if o.pipes > 1 {
			name = fmt.Sprintf("%s-%d", name, i)
		}

		eng := core.NewEngine(pl)
		eng.Seed = o.seed
		eng.Metrics = d.Metrics()
		switch {
		case o.model != "":
			clf, err := mlkit.LoadModel(o.model)
			if err != nil {
				return err
			}
			if err := eng.InstallModel(clf); err != nil {
				return err
			}
		default:
			if err := eng.Train(trainDS); err != nil {
				return fmt.Errorf("training: %w", err)
			}
		}

		src, err := o.buildSource(replayDS, i)
		if err != nil {
			return err
		}
		cfg := daemon.PipeConfig{
			Name:          name,
			Engine:        eng,
			Source:        src,
			Stream:        stream,
			AnomaliesOnly: o.anomaliesOnly,
		}
		if o.retrain {
			cfg.Retrain = daemon.RetrainConfig{
				Enabled:        true,
				ReservoirCap:   o.retrainReservoir,
				MinRows:        o.retrainMinRows,
				CooldownChunks: o.retrainCooldown,
				Seed:           o.seed,
				FreshData:      o.retrainFresh,
				Swap: daemon.SwapOptions{
					ShadowChunks: o.shadowChunks,
					AutoDecide:   o.swapAuto,
					MaxDisagree:  o.maxDisagree,
				},
			}
		}
		if w, c, err := openSink(o.alerts, i, o.pipes, stdout); err != nil {
			return err
		} else {
			cfg.Alerts = w
			if c != nil {
				closers = append(closers, c)
			}
		}
		if w, c, err := openSink(o.connlog, i, o.pipes, nil); err != nil {
			return err
		} else {
			cfg.ConnLog = w
			if c != nil {
				closers = append(closers, c)
			}
		}
		p, err := d.Start(cfg)
		if err != nil {
			return err
		}
		pipes = append(pipes, p)
		fmt.Fprintf(out, "lumend: pipeline %q running (%s ingest)\n", name, o.ingestKind())
	}

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

	if o.swapModel != "" {
		for _, p := range pipes {
			go o.scriptedSwap(p, stdout)
		}
	}

	allDone := make(chan struct{})
	go func() {
		for _, p := range pipes {
			<-p.Done()
		}
		close(allDone)
	}()
	select {
	case <-allDone:
	case s := <-sigs:
		fmt.Fprintf(out, "lumend: %v — draining\n", s)
	}
	drainErr := d.DrainAll()

	var failed []error
	if drainErr != nil {
		failed = append(failed, drainErr)
	}
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
		fmt.Fprintln(out, "lumend: wrote Chrome trace to", o.traceOut)
	}
	if o.metricsOut != "" {
		if err := d.Metrics().WritePrometheusFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Fprintln(out, "lumend: wrote Prometheus metrics to", o.metricsOut)
	}
	return errors.Join(failed...)
}

// ingestKind names the configured ingest for the boot banner.
func (o *options) ingestKind() string {
	switch {
	case o.replay != "":
		return "replay " + o.replay
	case o.replayDataset != "":
		return "replay dataset " + o.replayDataset
	case o.listenFeed != "":
		return "feed " + o.listenFeed
	default:
		return "watch " + o.watch
	}
}

// buildSource constructs the ingest source for replica i.
func (o *options) buildSource(replayDS *dataset.Labeled, i int) (dataset.Source, error) {
	switch {
	case replayDS != nil:
		if o.replayDelay > 0 {
			return daemon.NewPacedSource(dataset.NewSliceSource(replayDS), o.replayDelay), nil
		}
		return daemon.NewReplaySource(dataset.NewSliceSource(replayDS), o.speed), nil
	case o.listenFeed != "":
		network, addr := "tcp", o.listenFeed
		if rest, ok := strings.CutPrefix(o.listenFeed, "unix:"); ok {
			network, addr = "unix", rest
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		link, _ := linkType(o.link)
		return daemon.NewFeedSource("feed:"+ln.Addr().String(), ln, link, 1024), nil
	default:
		link, _ := linkType(o.link)
		return daemon.NewDirSource("watch:"+o.watch, o.watch, o.watchGlob, dataset.Packet, link, o.watchPoll), nil
	}
}

// openSink resolves one sink path for replica i: "" disables, "-" is the
// shared stdout writer, anything else is a file (suffixed .<i> when
// running replicas). The returned closer is nil for stdout.
func openSink(path string, i, pipes int, stdout io.Writer) (io.Writer, io.Closer, error) {
	switch path {
	case "":
		return nil, nil, nil
	case "-":
		if stdout == nil {
			return nil, nil, errors.New("this sink cannot write to stdout")
		}
		return stdout, nil, nil
	}
	if pipes > 1 {
		path = fmt.Sprintf("%s.%d", path, i)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f, nil
}

// scriptedSwap implements -swap-model: wait until the pipeline has
// scored -swap-after-chunks chunks, then start the hot swap and report
// its outcome. Runs on its own goroutine per pipeline.
func (o *options) scriptedSwap(p *daemon.Pipe, out io.Writer) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for p.Status().Chunks < int64(o.swapAfter) {
		select {
		case <-p.Done():
			return
		case <-tick.C:
		}
	}
	opts := daemon.SwapOptions{
		ShadowChunks: o.shadowChunks,
		AutoDecide:   o.swapAuto,
		MaxDisagree:  o.maxDisagree,
	}
	if err := p.SwapFromFile(o.swapModel, opts); err != nil {
		fmt.Fprintf(out, "lumend: pipeline %q scripted swap: %v\n", p.Name(), err)
		return
	}
	fmt.Fprintf(out, "lumend: pipeline %q shadow-scoring %s\n", p.Name(), o.swapModel)
}

// loadPcap reads a capture into an unlabeled dataset for replay.
func loadPcap(path string) (*dataset.Labeled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return nil, err
	}
	pkts, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	return &dataset.Labeled{
		Name:        path,
		Granularity: dataset.Packet,
		Link:        r.LinkType(),
		Packets:     pkts,
		Labels:      make([]int, len(pkts)),
		Attacks:     make([]string, len(pkts)),
	}, nil
}

// syncWriter serializes writes from concurrent pipeline goroutines onto
// one shared stream (stdout).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}
