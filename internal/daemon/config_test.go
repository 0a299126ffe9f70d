package daemon

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
)

// configFixture writes the test template and a model fitted on it into a
// temp directory and returns the directory and the model's path.
func configFixture(t *testing.T) (dir, model string) {
	t.Helper()
	dir = t.TempDir()
	tpl, err := core.MarshalPipeline(testPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tpl.json"), tpl, 0o644); err != nil {
		t.Fatal(err)
	}
	clf, _ := trainedEngine(t, testDS(t)).TrainedModel()
	model = filepath.Join(dir, "model.json")
	if err := mlkit.SaveModel(model, clf); err != nil {
		t.Fatal(err)
	}
	return dir, model
}

// TestConfigKeysReachPipeConfig sets every key of the file to a value
// that is not its default and checks it lands on the PipeConfig field (or
// source setting) the flag it replaces used to set; a last entry sets
// nothing optional and must come out with the old flag defaults.
func TestConfigKeysReachPipeConfig(t *testing.T) {
	dir, model := configFixture(t)
	capture := filepath.Join(dir, "capture.pcap")
	ds := testDS(t)
	writePcap(t, capture, ds.Link, ds.Packets[:50])
	doc := fmt.Sprintf(`{"pipelines": [
	  {"name": "a", "template": "tpl.json", "seed": 11, "train": {"dataset": "F1", "scale": 0.05},
	   "source": {"replay": {"dataset": "F1,F1", "scale": 0.05, "speed": 2}},
	   "stream": {"chunk_rows": 64, "chunk_bytes": 4096, "depth": 3},
	   "alerts": %[1]q, "anomalies_only": true, "connlog": %[2]q,
	   "swap": {"model": %[3]q, "shadow_chunks": 3, "max_disagree": 0.25},
	   "retrain": {"reservoir": 100, "min_rows": 10, "cooldown_chunks": 5, "fresh": true}},
	  {"name": "b", "template": "tpl.json", "model": %[3]q,
	   "source": {"link": "dot11", "watch": {"dir": %[4]q, "glob": "*.cap", "poll_ms": 20}}, "alerts": ""},
	  {"name": "c", "template": "tpl.json", "model": %[3]q,
	   "source": {"replay": {"pcap": %[5]q, "delay_ms": 7}}},
	  {"name": "d", "template": "tpl.json", "model": %[3]q, "source": {"link": "dot11", "feed": %[6]q}},
	  {"template": "tpl.json", "model": %[3]q, "source": {"watch": {"dir": %[4]q}}}
	]}`, filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "a.log"), model, dir, capture, "unix:"+filepath.Join(dir, "feed.sock"))
	cfg, err := ParseConfig([]byte(doc), dir)
	if err != nil {
		t.Fatal(err)
	}
	stdout := io.Discard
	pcs, release, err := cfg.Build(nil, stdout)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	a, b, c, d, def := pcs[0], pcs[1], pcs[2], pcs[3], pcs[4]
	gate := SwapOptions{ShadowChunks: 3, AutoDecide: true, MaxDisagree: 0.25}
	file := func(w io.Writer) string {
		if f, ok := w.(*os.File); ok {
			return filepath.Base(f.Name())
		}
		return fmt.Sprint(w)
	}
	for _, row := range []struct {
		key       string // the key, and the flag it replaces
		got, want any
	}{
		{"name (-pipes suffixes)", a.Name, "a"},
		{"template (-pipeline)", a.Engine.P.Name, "daemon-pkt-dt"},
		{"seed (-seed)", a.Engine.Seed, int64(11)},
		{"seed reaches the retrain reservoir", a.Retrain.Seed, int64(11)},
		{"train (-train, -train-scale)", func() bool { _, ok := a.Engine.TrainedModel(); return ok }(), true},
		{"model (-model)", func() bool { _, ok := b.Engine.TrainedModel(); return ok }(), true},
		{"source.replay.dataset, .scale (-replay-dataset, -replay-scale)", a.Source.Meta().Name, "F1+F1"},
		{"source.replay.speed (-speed)", a.Source.(*ReplaySource).speed, 2.0},
		{"source.replay.pcap (-replay)", c.Source.Meta().Name, capture},
		{"source.replay.delay_ms (-replay-delay)", c.Source.(*ReplaySource).delay, 7 * time.Millisecond},
		{"source.watch.dir (-watch)", b.Source.(*DirSource).dir, dir},
		{"source.watch.glob (-watch-glob)", b.Source.(*DirSource).glob, "*.cap"},
		{"source.watch.poll_ms (-watch-poll)", b.Source.(*DirSource).poll, 20 * time.Millisecond},
		{"source.link on a watch (-link)", b.Source.Meta().Link, netpkt.LinkDot11},
		{"source.feed (-listen-feed)", d.Source.Meta().Name, "feed:" + filepath.Join(dir, "feed.sock")},
		{"source.link on a feed (-link)", d.Source.Meta().Link, netpkt.LinkDot11},
		{"stream.* (-chunk-rows, -chunk-bytes, -depth)", a.Stream,
			core.StreamConfig{ChunkRows: 64, ChunkBytes: 4096, PipelineDepth: 3}},
		{"alerts (-alerts)", file(a.Alerts), "a.jsonl"},
		{"alerts: empty disables", b.Alerts, nil},
		{"anomalies_only (-anomalies-only)", a.AnomaliesOnly, true},
		{"connlog (-connlog)", file(a.ConnLog), "a.log"},
		{"swap.model (-swap-model)", cfg.Pipelines[0].Swap.Model, model},
		{"swap.shadow_chunks, .max_disagree (-shadow-chunks, -max-disagree)", cfg.Pipelines[0].Swap.SwapOptions, gate},
		{"retrain.* (-retrain, -retrain-reservoir, -retrain-min-rows, -retrain-cooldown, -retrain-fresh)", a.Retrain,
			RetrainConfig{Enabled: true, ReservoirCap: 100, MinRows: 10, CooldownChunks: 5, Seed: 11, FreshData: true, Swap: gate}},

		{"default name: the template's", def.Name, "daemon-pkt-dt"},
		{"default seed", def.Engine.Seed, int64(7)},
		{"default stream: 512 chunk rows, inline", def.Stream, core.StreamConfig{ChunkRows: 512}},
		{"default glob", def.Source.(*DirSource).glob, "*.pcap"},
		{"default poll", def.Source.(*DirSource).poll, 500 * time.Millisecond},
		{"default link", def.Source.Meta().Link, netpkt.LinkEthernet},
		{"default alerts: stdout", def.Alerts, stdout},
		{"default connlog: none", def.ConnLog, nil},
		{"default retrain: off", def.Retrain, RetrainConfig{}},
		{"default replay pacing: none", c.Source.(*ReplaySource).speed, 0.0},
		{"default gate: auto-decided, the pipe's own shadow window", cfg.Pipelines[4].Swap.SwapOptions, SwapOptions{AutoDecide: true}},
	} {
		if !reflect.DeepEqual(row.got, row.want) {
			t.Errorf("%s: got %#v, want %#v", row.key, row.got, row.want)
		}
	}
}

// exampleConfigs returns every examples/**/lumend.json.
func exampleConfigs(t testing.TB) []string {
	paths, err := filepath.Glob("../../examples/*/lumend.json")
	if err != nil || len(paths) < 3 {
		t.Fatalf("found %d example configs (err %v), want at least 3", len(paths), err)
	}
	return paths
}

// workersConfig sets stream.workers, a key the file does not declare:
// the engine's ops stage is one goroutine.
const workersConfig = `{"pipelines":[{"template":"pipeline.json","model":"m.json","source":{"replay":{"dataset":"F1"}},"stream":{"depth":2,"workers":2}}]}`

// TestConfigRejectsStreamWorkers: stream.workers fails as an unknown
// field, like any key the file does not declare, before anything is
// loaded.
func TestConfigRejectsStreamWorkers(t *testing.T) {
	_, err := ParseConfig([]byte(workersConfig), "../../examples/daemon-hot-swap")
	if err == nil || !strings.Contains(err.Error(), `unknown field "workers"`) {
		t.Fatalf("ParseConfig = %v, want an unknown-field error naming workers", err)
	}
	if _, err := ParseConfig([]byte(strings.Replace(workersConfig, `,"workers":2`, "", 1)), "../../examples/daemon-hot-swap"); err != nil {
		t.Fatalf("the same file without workers: %v", err)
	}
}

// FuzzDaemonConfig: arbitrary bytes are either refused or yield a config
// whose every pipeline plans the way `lumend -check` does, without a
// panic. Nothing is built, so no socket, directory or sink is opened;
// only templates under examples/ are read, so a mutated path cannot
// point the loader at a device or a huge file.
func FuzzDaemonConfig(f *testing.F) {
	for _, path := range exampleConfigs(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, filepath.Base(filepath.Dir(path)))
	}
	f.Add([]byte(`{"pipelines":[{"template":"pipeline.json","model":"m.json","source":{"link":"dot11","feed":"unix:/tmp/x"},"swap":{"model":"c.json"}}]}`), "daemon-hot-swap")
	f.Add([]byte(`{"pipelines":[{"template":"pipeline.json","model":"m.json","source":{"watch":{"dir":"spool","poll_ms":1e3}},"retrain":{}}]}`), "drift-retrain")
	f.Add([]byte(workersConfig), "daemon-hot-swap")
	root, err := filepath.Abs("../../examples")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, sub string) {
		cfg, err := ParseConfig(data, filepath.Join(root, filepath.Base(sub)))
		if err != nil {
			return
		}
		for _, s := range cfg.Pipelines {
			if rel, err := filepath.Rel(root, s.Template); err != nil || strings.HasPrefix(rel, "..") || filepath.Ext(rel) != ".json" {
				return
			}
		}
		engs, err := cfg.Engines()
		if err != nil {
			return
		}
		for i, eng := range engs {
			if cfg.Pipelines[i].Name == "" {
				t.Fatalf("pipelines[%d] planned without a name", i)
			}
			if _, err := eng.StreamPlan(core.ModeTest, false); err != nil {
				t.Fatalf("pipelines[%d] type-checked at load but does not plan: %v", i, err)
			}
		}
	})
}

// TestExampleConfigsPlan keeps the shipped files loadable (what `make
// config-check` runs through the binary).
func TestExampleConfigsPlan(t *testing.T) {
	for _, path := range exampleConfigs(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ParseConfig(data, filepath.Dir(path))
		if err == nil {
			_, err = cfg.Engines()
		}
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
