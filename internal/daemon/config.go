package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// FileConfig is the document `lumend -config` reads, decoded strictly. The
// field comments below it are OPERATIONS.md's key reference (doclint_test.go).
type FileConfig struct {
	// Pipelines lists the resident pipelines, booted in file order; at least one.
	Pipelines []PipelineSpec `json:"pipelines"`
}

// PipelineSpec declares one resident pipeline.
type PipelineSpec struct {
	// Name identifies the pipeline in alert lines, metric labels and HTTP paths, unique per file; default: the template's own name.
	Name string `json:"name"`
	// Template is the pipeline template file (the paper's Fig. 4 format, what `lumen -pipeline` runs), relative to the config file's directory; required.
	Template string `json:"template"`
	// Seed is the random seed for boot training and the retrain reservoir; default 7.
	Seed int64 `json:"seed"`
	// Model is a model file saved with `lumen -save-model` to install at boot; exactly one of model and train.
	Model string `json:"model"`
	// Train fits the model at boot on a registry dataset; exactly one of model and train.
	Train *DatasetSpec `json:"train"`
	// Source is the ingest: exactly one of replay, watch and feed.
	Source SourceSpec `json:"source"`
	// Stream bounds chunking and sets the stream depth; chunk_rows defaults to 512 here.
	Stream core.StreamConfig `json:"stream"`
	// Alerts is the JSONL verdict sink: a file, - for stdout (the default), or empty for none.
	Alerts string `json:"alerts"`
	// AnomaliesOnly writes alert lines only for units predicted anomalous; counters still count every verdict.
	AnomaliesOnly bool `json:"anomalies_only"`
	// ConnLog is a file that receives a Zeek-style conn-log TSV, one section per pass, written as connections close; default none.
	ConnLog string `json:"connlog"`
	// Swap is the shadow gate a candidate declared here must pass before it is promoted, automatically either way: its own model, and whatever retrain fits.
	Swap SwapSpec `json:"swap"`
	// Retrain turns on drift-triggered retraining by being present, even empty: whenever the template's drift_detect op fires, the model is refitted in the background and the candidate goes through the swap gate.
	Retrain *RetrainConfig `json:"retrain"`
}

// DatasetSpec names synthetic registry data.
type DatasetSpec struct {
	// Dataset is a registry dataset ID (F0-F9, P0-P4), or a comma-separated list of them joined back to back on one continued timeline (a drifting stream).
	Dataset string `json:"dataset"`
	// Scale is the dataset scale; 0 means 1.0, the full synthetic size.
	Scale float64 `json:"scale"`
}

// generate synthesizes the listed datasets on one continued timeline.
func (d DatasetSpec) generate() (*dataset.Labeled, error) {
	if d.Scale <= 0 {
		d.Scale = 1
	}
	var parts []*dataset.Labeled
	for _, id := range strings.Split(d.Dataset, ",") {
		spec, ok := dataset.Get(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", id)
		}
		parts = append(parts, spec.Generate(d.Scale))
	}
	return dataset.Concat(parts...)
}

// SourceSpec selects one ingest.
type SourceSpec struct {
	// Link is the link layer of feed frames and the advisory one of watched captures: ethernet (default) or dot11.
	Link string `json:"link"`
	// Replay streams a capture file or synthetic datasets from memory; finite, and the only source `reload` can rewind.
	Replay *ReplaySpec `json:"replay"`
	// Watch streams size-stable capture files from a directory as they are rotated in, in name order.
	Watch *WatchSpec `json:"watch"`
	// Feed accepts length-prefixed frames from any number of producers on host:port or unix:/path.
	Feed string `json:"feed"`
}

// ReplaySpec is the replay source: exactly one of pcap and dataset.
type ReplaySpec struct {
	// Pcap is the capture file to replay.
	Pcap string `json:"pcap"`
	DatasetSpec
	// Speed paces the replay as a multiple of capture speed; 0 is unpaced.
	Speed float64 `json:"speed"`
	// DelayMs is a fixed per-chunk delay in milliseconds that ignores capture timestamps; 0 is unpaced, and it excludes speed.
	DelayMs float64 `json:"delay_ms"`
}

// WatchSpec is the watched-directory source.
type WatchSpec struct {
	// Dir is the directory to watch; required.
	Dir string `json:"dir"`
	// Glob selects capture file names; default *.pcap.
	Glob string `json:"glob"`
	// PollMs is the polling interval in milliseconds; default 500.
	PollMs float64 `json:"poll_ms"`
}

// SwapSpec is a scripted hot swap plus the gate it shares with retrain.
type SwapSpec struct {
	// Model is a candidate model file to hot-swap in at the first chunk boundary; default none.
	Model string `json:"model"`
	SwapOptions
}

// ms converts a millisecond key to a duration.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// strict decodes data into v, refusing keys v does not declare and
// anything after the document.
func strict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the document")
	}
	return nil
}

// ParseConfig strict-decodes a config document (each entry over the
// defaults that are not zero values), rejects inconsistent entries and
// resolves template paths against dir. It touches nothing outside data.
func ParseConfig(data []byte, dir string) (*FileConfig, error) {
	var doc struct {
		Pipelines []json.RawMessage `json:"pipelines"`
	}
	if err := strict(data, &doc); err != nil {
		return nil, fmt.Errorf("daemon: config: %w", err)
	}
	if len(doc.Pipelines) == 0 {
		return nil, errors.New("daemon: config: no pipelines")
	}
	c := &FileConfig{}
	for i, raw := range doc.Pipelines {
		s := PipelineSpec{Seed: 7, Stream: core.StreamConfig{ChunkRows: 512}, Alerts: "-"}
		s.Swap.AutoDecide = true // file-declared candidates are never left waiting for an operator
		err := strict(raw, &s)
		if err == nil {
			err = s.validate()
		}
		if err != nil {
			return nil, fmt.Errorf("daemon: config: pipelines[%d]: %w", i, err)
		}
		if !filepath.IsAbs(s.Template) {
			s.Template = filepath.Join(dir, s.Template)
		}
		c.Pipelines = append(c.Pipelines, s)
	}
	return c, nil
}

// validate rejects an entry no boot could honour.
func (s *PipelineSpec) validate() error {
	src := s.Source
	sources := 0
	for _, set := range []bool{src.Replay != nil, src.Watch != nil, src.Feed != ""} {
		if set {
			sources++
		}
	}
	switch r := src.Replay; {
	case s.Template == "":
		return errors.New("template is required")
	case (s.Model != "") == (s.Train != nil):
		return errors.New("need exactly one model source: model or train")
	case sources != 1:
		return errors.New("need exactly one source: replay, watch or feed")
	case r != nil && (r.Pcap != "") == (r.Dataset != ""):
		return errors.New("replay needs exactly one of pcap and dataset")
	case r != nil && r.Speed > 0 && r.DelayMs > 0:
		return errors.New("replay speed and delay are mutually exclusive")
	case src.Watch != nil && src.Watch.Dir == "":
		return errors.New("watch needs a dir")
	}
	if _, ok := links[src.Link]; !ok {
		return fmt.Errorf("unknown link %q (want ethernet or dot11)", src.Link)
	}
	return nil
}

// links maps the link key to a netpkt link type.
var links = map[string]netpkt.LinkType{"": netpkt.LinkEthernet, "ethernet": netpkt.LinkEthernet, "dot11": netpkt.LinkDot11}

// Engines loads and type-checks every entry's template and settles the
// pipeline names. The engines are untrained: -check plans them, Build
// makes them resident.
func (c *FileConfig) Engines() ([]*core.Engine, error) {
	engs := make([]*core.Engine, len(c.Pipelines))
	seen := map[string]bool{}
	for i := range c.Pipelines {
		s := &c.Pipelines[i]
		pl, err := core.LoadPipeline(s.Template)
		if err != nil {
			return nil, fmt.Errorf("daemon: config: pipelines[%d]: %w", i, err)
		}
		if s.Name == "" {
			s.Name = pl.Name
		}
		if s.Name == "" || seen[s.Name] {
			return nil, fmt.Errorf("daemon: config: pipelines[%d]: pipeline name %q is empty or already taken", i, s.Name)
		}
		seen[s.Name] = true
		engs[i] = core.NewEngine(pl)
		engs[i].Seed = s.Seed
	}
	return engs, nil
}

// Build makes every declared pipeline ready to Start: engines trained or
// loaded, sources open (a feed binds its socket here), sink files
// created, "-" sinks on stdout. Nothing is started, so an error in any
// entry boots nothing. release stops the sources and closes the sinks;
// call it after the pipelines drained (on error Build already has).
func (c *FileConfig) Build(metrics *obs.Metrics, stdout io.Writer) (cfgs []PipeConfig, release func(), err error) {
	var files []*os.File
	release = func() {
		for _, pc := range cfgs {
			if dr, ok := pc.Source.(Drainer); ok {
				dr.Drain()
			}
			if cl, ok := pc.Source.(io.Closer); ok {
				cl.Close()
			}
		}
		for _, f := range files {
			f.Close()
		}
	}
	sink := func(path string) (io.Writer, error) {
		switch path {
		case "":
			return nil, nil
		case "-":
			return stdout, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	engs, err := c.Engines()
	for i := 0; i < len(engs) && err == nil; i++ {
		s := &c.Pipelines[i]
		engs[i].Metrics = metrics
		cfgs = append(cfgs, PipeConfig{Engine: engs[i]})
		if err = s.build(&cfgs[i]); err == nil {
			cfgs[i].Alerts, err = sink(s.Alerts)
		}
		if err == nil {
			cfgs[i].ConnLog, err = sink(s.ConnLog)
		}
		if err != nil {
			err = fmt.Errorf("daemon: pipeline %q: %w", s.Name, err)
		}
	}
	if err != nil {
		release()
	}
	return cfgs, release, err
}

// build fills pc from the entry: the policies, the model, the source.
func (s *PipelineSpec) build(pc *PipeConfig) error {
	pc.Name, pc.Stream, pc.AnomaliesOnly = s.Name, s.Stream, s.AnomaliesOnly
	if s.Retrain != nil {
		pc.Retrain = *s.Retrain
		pc.Retrain.Enabled, pc.Retrain.Seed, pc.Retrain.Swap = true, s.Seed, s.Swap.SwapOptions
	}
	if s.Swap.Model != "" {
		// An unreadable candidate fails the boot, not the run minutes in.
		if _, err := mlkit.LoadModel(s.Swap.Model); err != nil {
			return fmt.Errorf("swap model: %w", err)
		}
	}
	if s.Train != nil {
		ds, err := s.Train.generate()
		if err == nil {
			err = pc.Engine.Train(ds)
		}
		if err != nil {
			return fmt.Errorf("training: %w", err)
		}
	} else {
		clf, err := mlkit.LoadModel(s.Model)
		if err == nil {
			err = pc.Engine.InstallModel(clf)
		}
		if err != nil {
			return err
		}
	}
	src, err := s.Source.open()
	pc.Source = src
	return err
}

// open constructs the declared source.
func (s SourceSpec) open() (dataset.Source, error) {
	link := links[s.Link]
	switch {
	case s.Watch != nil:
		return NewDirSource("watch:"+s.Watch.Dir, s.Watch.Dir, s.Watch.Glob, dataset.Packet, link, ms(s.Watch.PollMs)), nil
	case s.Feed != "":
		network, addr := "tcp", s.Feed
		if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
			network, addr = "unix", rest
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return NewFeedSource("feed:"+ln.Addr().String(), ln, link, 0), nil
	}
	r := s.Replay
	var inner dataset.Source
	if r.Pcap != "" {
		c, err := openCapture(r.Pcap)
		if err != nil {
			return nil, err
		}
		inner = c
	} else {
		ds, err := r.generate()
		if err != nil {
			return nil, err
		}
		inner = dataset.NewSliceSource(ds)
	}
	return NewReplaySource(inner, r.Speed, ms(r.DelayMs)), nil
}

// capture is a replayed capture file streamed from its memory mapping
// (or through a buffered reader where the file cannot be mapped), never
// loaded: Close unmaps it and closes the file.
type capture struct {
	*dataset.PcapSource
	f *os.File
}

// openCapture opens the capture at path for replay.
func openCapture(path string) (*capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := dataset.NewPcapSource(path, f, dataset.Packet)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &capture{src, f}, nil
}

// Close implements io.Closer.
func (c *capture) Close() error { return errors.Join(c.PcapSource.Close(), c.f.Close()) }
