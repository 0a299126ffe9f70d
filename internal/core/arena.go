package core

import "sync"

// chunkArena is the scratch of one chunk on a recycling pass, or of a
// block of closed flows: the frame columns, feature matrix, unit indices
// and labels its ops ask for through opCtx.scratch, carved from slabs
// that a later chunk reuses once this one has been handed out. Its
// methods are nil-safe: a nil arena (ops called directly, the drain
// pass, passes that do not recycle) serves every request with make, so
// an op has one code path whichever it gets. Buffers come back
// zeroed and capacity-capped, exactly as make would return them.
type chunkArena struct {
	f   slab[float64]
	i   slab[int]
	s   slab[string]
	hdr slab[[]float64]
}

// floats returns a zeroed []float64 of length n.
func (a *chunkArena) floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f.take(n)
}

// ints returns a zeroed []int of length n.
func (a *chunkArena) ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.i.take(n)
}

// strs returns a zeroed []string of length n.
func (a *chunkArena) strs(n int) []string {
	if a == nil {
		return make([]string, n)
	}
	return a.s.take(n)
}

// rows returns n nil slice headers: a matrix's row views or a frame's
// column list.
func (a *chunkArena) rows(n int) [][]float64 {
	if a == nil {
		return make([][]float64, n)
	}
	return a.hdr.take(n)
}

// reset makes every buffer of the arena free for the next chunk.
func (a *chunkArena) reset() {
	a.f.reset()
	a.i.reset()
	a.s.reset()
	a.hdr.reset()
}

// slab hands out sub-slices of one backing array. A chunk that asks for
// more than the array holds gets a fresh one for the rest of its
// requests; reset then sizes the array to the chunk's whole demand, so a
// pass whose chunks ask alike allocates nothing after its first.
type slab[T any] struct {
	buf  []T
	used int // of buf
	want int // asked for since the last reset, across every buf
}

func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return []T{}
	}
	if s.used+n > len(s.buf) {
		s.buf, s.used = make([]T, max(n, 2*len(s.buf))), 0
	}
	out := s.buf[s.used : s.used+n : s.used+n]
	clear(out)
	s.used += n
	s.want += n
	return out
}

func (s *slab[T]) reset() {
	if s.want > len(s.buf) {
		s.buf = make([]T, s.want)
	}
	s.used, s.want = 0, 0
}

// arenaPool is a recycling pass's free list of chunk arenas. A chunk job
// takes one at its first buffer request (jobScratch.arena), never
// earlier, and the sink puts it back once the job has been absorbed and
// its hook has returned. A plain mutex-guarded slice rather than a
// sync.Pool: the collector never empties it, so a pass whose allocating
// ops all run in the sink cycles one arena however it is scheduled.
type arenaPool struct {
	mu   sync.Mutex
	free []*chunkArena
}

func (p *arenaPool) get() *chunkArena {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return &chunkArena{}
	}
	a := p.free[n-1]
	p.free = p.free[:n-1]
	return a
}

func (p *arenaPool) put(a *chunkArena) {
	a.reset()
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// jobScratch is where one chunk job's ops get their buffers: the pass's
// free list (nil when the pass does not recycle) and the arena the job
// took from it.
type jobScratch struct {
	pool *arenaPool
	a    *chunkArena
}

// arena returns the job's arena, taking one from the free list at the
// first request; nil when the pass does not recycle.
func (s *jobScratch) arena() *chunkArena {
	if s == nil || s.pool == nil {
		return nil
	}
	if s.a == nil {
		s.a = s.pool.get()
	}
	return s.a
}

// release hands the job's arena, if it took one, back to the free list.
func (s *jobScratch) release() {
	if s.a != nil {
		s.pool.put(s.a)
		s.a = nil
	}
}
