package widget

import "testing"

func TestHelper(t *testing.T) {
	if Helper(3) != 8 {
		t.Fatal("Helper")
	}
	var tl Tally
	tl.Add(2)
	if tl.calls.Load() != 1 || tl.Count(2) != 1 {
		t.Fatal("Tally")
	}
}
