package daemon

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/pcap"
)

// TestReplayPcapStreamsTheMapping: a `replay.pcap` source streams the
// capture from its mapping instead of loading it. Its pipeline reports
// decode mode mmap+lazy; a reload replays from the top, and the reloaded
// pass's alert lines and conn-log section equal those of a replay of the
// loaded capture; once the pipeline has stopped the mapping is gone.
func TestReplayPcapStreamsTheMapping(t *testing.T) {
	dir, model := configFixture(t)
	capture := filepath.Join(dir, "capture.pcap")
	ds := testDS(t)
	writePcap(t, capture, ds.Link, ds.Packets)
	run := func(src dataset.Source, reload bool) (*Pipe, []Alert, string) {
		t.Helper()
		eng := core.NewEngine(testPipeline())
		clf, err := mlkit.LoadModel(model)
		if err == nil {
			err = eng.InstallModel(clf)
		}
		if err != nil {
			t.Fatal(err)
		}
		var alerts, connlog bytes.Buffer
		p, err := New(Config{}).Start(PipeConfig{
			Name: "replay", Engine: eng, Source: src,
			Stream: core.StreamConfig{ChunkRows: 64}, Alerts: &alerts, ConnLog: &connlog,
		})
		if err != nil {
			t.Fatal(err)
		}
		if reload {
			waitFor(t, 5*time.Second, "first chunk", func() bool { return p.Status().Chunks >= 1 })
			if err := p.Reload(); err != nil {
				t.Fatal(err)
			}
		}
		<-p.Done()
		got := parseAlerts(t, alerts.Bytes())
		for i := range got {
			got[i].TS = ""
		}
		return p, got, connlog.String()
	}
	loaded, err := dataset.LoadPcap(capture)
	if err != nil {
		t.Fatal(err)
	}
	_, want, wantLog := run(NewReplaySource(dataset.NewSliceSource(loaded), 0, 0), false)

	base := pcap.OpenMappings()
	doc := fmt.Sprintf(`{"pipelines": [{"template": "tpl.json", "model": %q, "alerts": "",
	  "source": {"replay": {"pcap": %q, "delay_ms": 20}}}]}`, model, capture)
	cfg, err := ParseConfig([]byte(doc), dir)
	if err != nil {
		t.Fatal(err)
	}
	pcs, release, err := cfg.Build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if n := pcap.OpenMappings(); n != base+1 {
		t.Fatalf("replay holds %d mappings, want 1", n-base)
	}
	p, got, gotLog := run(pcs[0].Source, true)
	if st := p.Status(); st.DecodeMode != "mmap+lazy" || st.Passes != 2 || st.Error != "" {
		t.Fatalf("replay status: decode mode %q, %d passes, error %q; want mmap+lazy, 2, none", st.DecodeMode, st.Passes, st.Error)
	}
	restart := 0
	for i := 1; i < len(got); i++ {
		if got[i].Seq < got[i-1].Seq {
			restart = i
		}
	}
	if restart == 0 || !reflect.DeepEqual(got[restart:], want) {
		t.Fatalf("reloaded pass wrote %d alert lines from line %d, the loaded replay %d, and they differ", len(got)-restart, restart, len(want))
	}
	if !strings.HasSuffix(gotLog, wantLog) || len(gotLog) == len(wantLog) {
		t.Fatal("the reloaded pass's conn-log section differs from the loaded replay's")
	}
	if n := pcap.OpenMappings(); n != base {
		t.Fatalf("%d mappings left open once the pipeline stopped", n-base)
	}
}
