// Package testonly is a seeded-violation fixture for the testonly analyzer.
// Its import path has an internal element, so the analyzer checks it, and
// Double — called only from testonly_test.go — must be flagged.
package testonly

// Double returns twice x; only the package's tests call it.
func Double(x int) int { return 2 * x }
