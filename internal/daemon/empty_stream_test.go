package daemon

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

// TestEmptyStreamAtTheEngine: every source over empty input ends with no
// chunk, and RunStream runs one empty chunk in its place, at depth 0 and
// staged, hooked or not, in train and test mode. The hook sees exactly
// one update, chunk 0 at base 0 with no packets; an unhooked test pass
// returns one verdict batch with no rows, and a train pass fails the way
// the train op fails on a frame with no labels.
func TestEmptyStreamAtTheEngine(t *testing.T) {
	empty := &dataset.Labeled{Name: "empty", Granularity: dataset.Packet, Link: netpkt.LinkEthernet}
	sources := []struct {
		name string
		open func(t *testing.T) dataset.Source
	}{
		{"pcap, header only", func(t *testing.T) dataset.Source {
			path := filepath.Join(t.TempDir(), "empty.pcap")
			writePcap(t, path, netpkt.LinkEthernet, nil)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			src, err := dataset.NewPcapSource(path, f, dataset.Packet)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close(); f.Close() })
			return src
		}},
		{"watch, empty directory drained", func(t *testing.T) dataset.Source {
			src := NewDirSource("empty", t.TempDir(), "", dataset.Packet, netpkt.LinkEthernet, 10*time.Millisecond)
			src.Drain()
			return src
		}},
		{"slice, empty dataset", func(*testing.T) dataset.Source { return dataset.NewSliceSource(empty) }},
		{"replay, empty dataset", func(*testing.T) dataset.Source {
			return NewReplaySource(dataset.NewSliceSource(empty), 0, 0)
		}},
		{"feed, drained with no producer", func(t *testing.T) dataset.Source {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("tcp loopback unavailable: %v", err)
			}
			src := NewFeedSource("empty", ln, netpkt.LinkEthernet, 0)
			src.Drain()
			return src
		}},
	}
	trained := trainedEngine(t, testDS(t))
	const trainErr = "core: op 3 (train -> fit): train: frame has no labels"
	for _, sc := range sources {
		for _, depth := range []int{0, 2} {
			for _, hooked := range []bool{false, true} {
				for _, mode := range []core.Mode{core.ModeTrain, core.ModeTest} {
					label := fmt.Sprintf("%s, depth %d, hooked %v, mode %d", sc.name, depth, hooked, mode)
					eng := core.NewEngine(testPipeline())
					if mode == core.ModeTest {
						eng = trained
					}
					cfg := core.StreamConfig{ChunkRows: 64, PipelineDepth: depth}
					var ups []core.ChunkUpdate
					if hooked {
						cfg.Hooks = &core.StreamHooks{AfterChunk: func(up core.ChunkUpdate) error {
							ups = append(ups, up)
							return nil
						}}
					}
					res, err := eng.RunStream(sc.open(t), mode, cfg)
					if hooked {
						if len(ups) != 1 || ups[0].Seq != 0 || ups[0].Base != 0 || ups[0].Flush || ups[0].Views != nil {
							t.Errorf("%s: hook saw %d updates (%+v), want one: chunk 0, base 0, no views", label, len(ups), ups)
						}
					}
					switch {
					case mode == core.ModeTrain:
						if err == nil || err.Error() != trainErr {
							t.Errorf("%s: err %v, want %q", label, err, trainErr)
						}
					case err != nil:
						t.Errorf("%s: %v", label, err)
					case hooked && res != nil:
						t.Errorf("%s: hooked pass returned %+v", label, res)
					case !hooked && !reflect.DeepEqual(res, &core.EvalResult{}):
						t.Errorf("%s: result %+v, want one verdict batch with no rows", label, res)
					}
				}
			}
		}
	}
}
