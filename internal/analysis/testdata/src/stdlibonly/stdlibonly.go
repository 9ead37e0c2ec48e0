// Package stdlibonly seeds a violation for the stdlibonly analyzer:
// a designated leaf package reaching back into the module — beside an
// import of another designated leaf, which is allowed.
package stdlibonly

import (
	"fmt"

	"oreo/internal/analysis/testdata/src/stdlibonly/leaf"
	"oreo/internal/zorder" // want "reaches back into the module"
)

func use() string {
	return fmt.Sprint(zorder.MaxDims, leaf.Quote("x"))
}

var _ = use
