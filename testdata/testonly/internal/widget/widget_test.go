package widget

import "testing"

func TestHelper(t *testing.T) {
	if Helper(3) != 8 {
		t.Fatal("Helper")
	}
}
