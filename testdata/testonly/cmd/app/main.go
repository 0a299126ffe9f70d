// Command app is the fixture's production caller.
package main

import (
	"fmt"
	"io"

	"fixture/internal/widget"
)

func main() {
	n, _ := io.CopyN(io.Discard, widget.Zeros{}, 8)
	var s widget.Stack[int]
	s.Push(int(n))
	fmt.Println(s.Len(), widget.KindSome)
}
