// Package widget is the fixture for the test-only declaration gate: the
// gate must flag Helper, Ones and Tally.calls and nothing else.
package widget

import "sync/atomic"

// Helper is exported, but only widget_test.go calls it: its call to
// itself does not count.
func Helper(n int) int {
	if n == 0 {
		return 1
	}
	return 2 * Helper(n-1)
}

// Zeros reads as an endless run of zero bytes.
type Zeros struct{}

// Read implements io.Reader; no file names the method.
func (Zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// Ones reads as an endless run of one bytes, but nothing makes one: only
// its own method names the type, and that does not count. Its Read
// implements io.Reader, so the method is not flagged.
type Ones struct{}

// Read fills p with ones.
func (o Ones) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 1
	}
	return len(p), nil
}

// Stack is a generic LIFO.
type Stack[T any] struct{ items []T }

// Push is reached only through an instance, Stack[int].
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Len reports how many values the stack holds.
func (s *Stack[T]) Len() int { return len(s.items) }

// Kind is an iota enum whose zero value nothing names.
type Kind int

// Kinds.
const (
	KindNone Kind = iota
	KindSome
)

// Tally counts the values it is shown.
type Tally struct {
	calls  atomic.Uint64 // counted, and read only by widget_test.go
	counts map[span]int
}

// span is compared whole, as a map key: that reads both its fields.
type span struct{ lo, hi int }

// Add counts v.
func (t *Tally) Add(v int) {
	t.calls.Add(1)
	if t.counts == nil {
		t.counts = map[span]int{}
	}
	t.counts[span{lo: v, hi: v + 1}]++
}

// Count reports how often v was added.
func (t *Tally) Count(v int) int { return t.counts[span{lo: v, hi: v + 1}] }
