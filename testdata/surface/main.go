// Command fixture is the consumer side of the exported-surface checker's
// self-test: it uses lib's constructor, reaches lib.Result only through a
// method's signature, and uses Used.Temporary only by asserting a literal
// interface.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	u := lib.NewUsed()
	r := u.Reached()
	var v any = u
	if t, ok := v.(interface{ Temporary() bool }); ok {
		fmt.Println(r, t.Temporary())
	}
}
