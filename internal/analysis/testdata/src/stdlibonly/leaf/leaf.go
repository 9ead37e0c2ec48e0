// Package leaf is a second designated stdlib-only package: the one
// module-internal import a designated package may make.
package leaf

import "strconv"

// Quote is something to import.
func Quote(s string) string { return strconv.Quote(s) }
