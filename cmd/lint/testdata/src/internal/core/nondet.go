// Package core is a seeded-violation fixture for the nondetsrc analyzer.
// Its directory path ends in internal/core, so it falls inside the
// analyzer's guarded scope, and the wall-clock read below must be flagged.
// The read sits in a package-level initializer rather than a function that
// nothing calls, so the fixture seeds no testonly finding.
package core

import "time"

// stamp reads the wall clock, which a deterministic core package must not.
var stamp = time.Now().UnixNano()
