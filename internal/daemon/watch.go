package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// DirSource ingests rotated capture files from a watched directory: it
// polls for files matching a glob pattern, waits for each file's size to
// hold still across one poll interval (the rotation-complete heuristic),
// then streams it as pcap chunks with packet indices rebased to one
// continuous stream across files. Files are processed once each, in
// lexical name order — name rotated captures sortably
// (trace-000017.pcap). DirSource is not resettable; a watch has no
// beginning to rewind to.
//
// Each file is memory-mapped and served zero-copy: every chunk holds a
// reference on its file's mapping (Chunk.Ref), so the mapping stays
// valid until the last in-flight chunk is released — even after the
// file's reader is closed, and even if the file itself is deleted
// mid-flight (the kernel keeps mapped pages alive past unlink).
type DirSource struct {
	name string
	dir  string
	glob string
	gran dataset.Granularity
	link netpkt.LinkType
	poll time.Duration

	stop     chan struct{}
	stopOnce sync.Once

	// pool is shared across the per-file sources so view slices keep
	// recycling across file boundaries.
	pool *pcap.BufferPool

	// Single-consumer state: Next runs on one goroutine.
	known   map[string]bool // every path ever queued for ingest
	waiting []string        // discovered but not yet size-stable, sorted
	sizes   map[string]int64
	cur     *dataset.PcapSource
	curf    *os.File
	base    int
	emitted bool
	hint    netpkt.DecodeHint
	listed  time.Time   // when scan last listed the directory
	tick    *time.Timer // the idle wait, re-armed per poll

	mu   sync.Mutex
	err  error
	mode string
}

// minListInterval is the shortest time between two listings of the
// watched directory: a faster poll re-checks the captures it already
// knows at its own rate, without walking the whole directory (every
// capture ever rotated in) each time.
const minListInterval = 50 * time.Millisecond

// NewDirSource watches dir for files matching glob (empty means
// "*.pcap"), polling every poll interval (0 means 500ms). gran and link describe
// the captures; link is advisory (each file's own pcap header governs
// decoding).
func NewDirSource(name, dir, glob string, gran dataset.Granularity, link netpkt.LinkType, poll time.Duration) *DirSource {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	if glob == "" {
		glob = "*.pcap"
	}
	return &DirSource{
		name:  name,
		dir:   dir,
		glob:  glob,
		gran:  gran,
		link:  link,
		poll:  poll,
		stop:  make(chan struct{}),
		pool:  pcap.NewBufferPool(),
		known: map[string]bool{},
		sizes: map[string]int64{},
	}
}

// Meta implements dataset.Source.
func (s *DirSource) Meta() dataset.SourceMeta {
	return dataset.SourceMeta{Name: s.name, Granularity: s.gran, Link: s.link}
}

// ConfigureViews implements dataset.ViewSource: every file opened from
// now on predecodes its views to hint's depth. Configure before the
// first Next call.
func (s *DirSource) ConfigureViews(_ bool, hint netpkt.DecodeHint) bool {
	s.hint = hint
	return true
}

// DecodeMode reports how the watch currently reads and decodes, for
// operator surfaces: "idle" before the first file opens, then the
// current file source's mode ("mmap+lazy"; "buffered+lazy" only where
// the platform cannot map files).
func (s *DirSource) DecodeMode() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == "" {
		return "idle"
	}
	return s.mode
}

// Next implements dataset.Source: it drains the current file, then polls
// for the next size-stable one. The stream ends on Drain or on the first
// unreadable file (surfaced via Err).
func (s *DirSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	for {
		select {
		case <-s.stop:
			s.Close()
			return s.endStream()
		default:
		}
		if s.cur != nil {
			ck, ok := s.cur.Next(maxRows, maxBytes)
			if ok {
				n := ck.Len()
				ck.Base = s.base
				s.base += n
				s.emitted = true
				return ck, true
			}
			err := s.cur.Err()
			s.Close()
			if err != nil {
				s.setErr(err)
				return s.endStream()
			}
		}
		if path := s.scan(); path != "" {
			if err := s.open(path); err != nil {
				s.setErr(err)
				return s.endStream()
			}
			continue
		}
		if s.tick == nil {
			s.tick = time.NewTimer(s.poll)
		} else {
			s.tick.Reset(s.poll) // fired and received below: safe to re-arm
		}
		select {
		case <-s.tick.C:
		case <-s.stop:
			s.tick.Stop()
			return s.endStream()
		}
	}
}

// scan returns the next unprocessed file whose size held still since the
// previous scan. Discovery is incremental: paths already queued or
// consumed (known) are skipped, and only genuinely new matches trigger a
// re-sort of the small waiting list — the glob result itself is never
// re-sorted or re-stat'd wholesale every tick, and the directory is
// listed at most once per minListInterval.
func (s *DirSource) scan() string {
	var matches []string
	if now := time.Now(); now.Sub(s.listed) >= minListInterval {
		s.listed = now
		var err error
		if matches, err = filepath.Glob(filepath.Join(s.dir, s.glob)); err != nil {
			s.setErr(fmt.Errorf("daemon: watch %q: %w", s.name, err))
			return ""
		}
	}
	grew := false
	for _, path := range matches {
		if !s.known[path] {
			s.known[path] = true
			s.waiting = append(s.waiting, path)
			grew = true
		}
	}
	if grew {
		sort.Strings(s.waiting)
	}
	for i := 0; i < len(s.waiting); {
		path := s.waiting[i]
		fi, err := os.Stat(path)
		switch {
		case os.IsNotExist(err) || (err == nil && fi.IsDir()):
			// Vanished before ingest, or a directory: drop for good.
			s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
			delete(s.sizes, path)
			continue
		case err != nil:
			// Transient stat failure: retry on the next tick.
			i++
			continue
		}
		if prev, ok := s.sizes[path]; ok && prev == fi.Size() {
			s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
			delete(s.sizes, path)
			return path
		}
		s.sizes[path] = fi.Size()
		i++
	}
	return ""
}

// open starts streaming one capture file.
func (s *DirSource) open(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("daemon: watch %q: %w", s.name, err)
	}
	src, err := dataset.NewPcapSourcePooled(filepath.Base(path), f, s.gran, s.pool)
	if err != nil {
		f.Close()
		return fmt.Errorf("daemon: watch %q: %s: %w", s.name, filepath.Base(path), err)
	}
	src.ConfigureViews(true, s.hint)
	src.EnableChunkRefs()
	s.cur, s.curf = src, f
	s.mu.Lock()
	s.mode = src.DecodeMode()
	s.mu.Unlock()
	return nil
}

// Close drops the current file's reader (releasing its owner reference
// on the mapping — in-flight chunks keep their own) and its descriptor.
// Next calls it as each file ends; a pipeline calls it when it ends,
// which matters when its pass failed mid-file.
func (s *DirSource) Close() error {
	if s.cur != nil {
		s.cur.Close()
	}
	if s.curf != nil {
		s.curf.Close()
	}
	s.cur, s.curf = nil, nil
	return nil
}

// Recycle implements dataset.Recycler against the watch's shared pool,
// so chunks recycle even after the file they were cut from drained and
// its per-file source was closed. Chunks holding a mapping reference
// alias the mapping and never pool their bytes; buffered chunks (no
// mmap on this platform) return record buffers too.
func (s *DirSource) Recycle(ck dataset.Chunk) {
	if ck.Ref == nil {
		s.pool.PutOwnedViews(ck.Views)
		return
	}
	s.pool.PutViews(ck.Views)
}

// endStream honors the at-least-one-chunk contract on first end.
func (s *DirSource) endStream() (dataset.Chunk, bool) {
	if !s.emitted {
		s.emitted = true
		return dataset.Chunk{Base: s.base}, true
	}
	return dataset.Chunk{}, false
}

// Reset implements dataset.Source; watches cannot rewind.
func (s *DirSource) Reset() error {
	return fmt.Errorf("daemon: watch %q: directory watches cannot be reset", s.name)
}

// Drain implements Drainer: the watch stops polling; the file currently
// streaming is cut off at the next chunk boundary.
func (s *DirSource) Drain() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Err returns the first file or decode error the watch hit.
func (s *DirSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *DirSource) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}
