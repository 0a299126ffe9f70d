// Package daemon is the resident detection service behind cmd/lumend: a
// registry of concurrently running streaming pipelines, each one a
// trained core.Engine scoring a live packet source through
// core.RunStream. The package owns the operational surface the batch CLI
// lacks: pluggable ingest (pcap replay, framed network feeds, watched
// capture directories), JSONL alert sinks, Zeek-style conn-logs at
// drain, live /metrics and /trace endpoints, graceful drain/reload, and
// atomic hot swap of a newly trained model with shadow-scored divergence
// reporting.
//
// Every pipeline runs on its own goroutine; all model mutation funnels
// through core.StreamHooks.AfterChunk on the scoring goroutine, so each
// chunk's verdicts are attributable to exactly one model generation.
package daemon

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lumen/internal/obs"
)

// Config carries the daemon-wide collaborators. Zero values are valid:
// a nil Metrics disables instrumentation, a nil Tracer disables spans.
type Config struct {
	// Metrics receives the lumen_daemon_* instrument families.
	Metrics *obs.Metrics
	// Tracer receives per-pass pipeline spans and swap events.
	Tracer *obs.Tracer
}

// Daemon is the pipeline registry. It hands out *Pipe handles, serves
// the operational HTTP surface (see Handler), and aggregates metrics
// across pipelines. All methods are safe for concurrent use.
type Daemon struct {
	metrics *obs.Metrics
	tracer  *obs.Tracer

	mu    sync.Mutex
	pipes map[string]*Pipe
	order []string
}

// New returns an empty daemon.
func New(cfg Config) *Daemon {
	return &Daemon{
		metrics: cfg.Metrics,
		tracer:  cfg.Tracer,
		pipes:   map[string]*Pipe{},
	}
}

// Metrics returns the daemon's metric registry (nil when disabled).
func (d *Daemon) Metrics() *obs.Metrics { return d.metrics }

// Tracer returns the daemon's tracer (nil when disabled).
func (d *Daemon) Tracer() *obs.Tracer { return d.tracer }

// Start validates cfg, registers the pipeline under its name, and starts
// its scoring goroutine. The returned Pipe is already running; callers
// observe it via Status and stop it via Drain.
func (d *Daemon) Start(cfg PipeConfig) (*Pipe, error) {
	p, err := d.newPipe(cfg)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if _, dup := d.pipes[p.name]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("daemon: pipeline %q already registered", p.name)
	}
	d.pipes[p.name] = p
	d.order = append(d.order, p.name)
	n := len(d.pipes)
	p.tid = n // one trace track per pipeline (track 0 stays the main track)
	d.mu.Unlock()
	d.metrics.Gauge("lumen_daemon_pipelines", "Registered pipelines.").Set(float64(n))
	go p.run()
	return p, nil
}

// Pipe returns the named pipeline, or false when unknown.
func (d *Daemon) Pipe(name string) (*Pipe, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pipes[name]
	return p, ok
}

// Pipes returns the registered pipelines in registration order.
func (d *Daemon) Pipes() []*Pipe {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Pipe, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.pipes[n])
	}
	return out
}

// Status returns every pipeline's status, sorted by name.
func (d *Daemon) Status() []PipeStatus {
	pipes := d.Pipes()
	out := make([]PipeStatus, 0, len(pipes))
	for _, p := range pipes {
		out = append(out, p.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DrainAll gracefully drains every pipeline, concurrently, and joins
// their terminal errors.
func (d *Daemon) DrainAll() error {
	pipes := d.Pipes()
	errs := make([]error, len(pipes))
	var wg sync.WaitGroup
	for i, p := range pipes {
		wg.Add(1)
		go func(i int, p *Pipe) {
			defer wg.Done()
			errs[i] = p.Drain()
		}(i, p)
	}
	wg.Wait()
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("pipeline %q: %w", pipes[i].name, err))
		}
	}
	return errors.Join(joined...)
}
