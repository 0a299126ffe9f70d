// Package widget is the fixture for the test-only declaration gate: the
// gate must flag Helper and nothing else.
package widget

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
