package lint

import "testing"

// expect asserts the diagnostics' (analyzer, line) pairs.
func expect(t *testing.T, diags []Diagnostic, want ...[2]int) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if diags[i].Pos.Line != w[1] {
			t.Errorf("diag %d (%s) at line %d, want %d: %s", i, diags[i].Analyzer, diags[i].Pos.Line, w[1], diags[i].Message)
		}
	}
}

func TestMapOrderFlagsOutputSinks(t *testing.T) {
	src := `package p

import (
	"fmt"
	"strings"
)

func FmtSink(m map[string]int) {
	for k := range m { // line 9: flagged, feeds fmt
		fmt.Println(k)
	}
}

func WriteSink(m map[string]int, b *strings.Builder) {
	for k := range m { // line 15: flagged, writes via Builder
		b.WriteString(k)
	}
}

func ReturnSink(m map[string]int) []string {
	var out []string
	for k := range m { // line 22: flagged, appends to returned slice
		out = append(out, k)
	}
	return out
}
`
	diags := analyze(t, "p", src, MapOrder)
	expect(t, diags, [2]int{0, 9}, [2]int{0, 15}, [2]int{0, 22})
}

func TestMapOrderAllowsSanctionedPatterns(t *testing.T) {
	src := `package p

import (
	"fmt"
	"sort"
)

// Collect-then-sort: the append target is sorted before it escapes.
func Sorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Ranging a slice is always fine.
func OverSlice(s []string) {
	for _, v := range s {
		fmt.Println(v)
	}
}

// A pure reduction over a map leaks no order.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`
	expect(t, analyze(t, "p", src, MapOrder))
}

func TestFloatEq(t *testing.T) {
	src := `package p

func Bad(a, b float64) bool { return a == b } // line 3: flagged

func BadNeq(a float32, b float32) bool { return a != b } // line 5: flagged

func NaNIdiom(a float64) bool { return a != a } // ok: NaN check

func Ints(a, b int) bool { return a == b } // ok: not floats

func Consts() bool { return 1.5 == 1.5 } // ok: constant folded
`
	diags := analyze(t, "p", src, FloatEq)
	expect(t, diags, [2]int{0, 3}, [2]int{0, 5})
}

// TestFloatEqApprovedHelpers places an approved helper inside a directory
// ending in internal/mat: its body may use raw equality, its neighbors may
// not.
func TestFloatEqApprovedHelpers(t *testing.T) {
	src := `package mat

func ExactEq(a, b float64) bool { return a == b } // ok: approved helper

func Other(a, b float64) bool { return a == b } // line 5: flagged
`
	diags := analyze(t, "internal/mat", src, FloatEq)
	expect(t, diags, [2]int{0, 5})
}

func TestNonDetSrcFlagsInsideScope(t *testing.T) {
	src := `package core

import (
	"math/rand"
	"time"
)

func Stamp() int64 { return time.Now().UnixNano() } // line 8: flagged

func Roll() int { return rand.Intn(6) } // line 10: flagged, global source

func Seeded(seed int64) float64 { // ok: explicit seed
	return rand.New(rand.NewSource(seed)).Float64()
}

func Race(a, b chan int) int { // flagged: 2 ready cases (line 17)
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func Single(a chan int) int { // ok: one case plus default
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}
`
	diags := analyze(t, "internal/core", src, NonDetSrc)
	expect(t, diags, [2]int{0, 8}, [2]int{0, 10}, [2]int{0, 17})
}

func TestNonDetSrcScopeExcludesOtherPackages(t *testing.T) {
	src := `package p

import "time"

func Stamp() int64 { return time.Now().UnixNano() } // ok: outside scope
`
	expect(t, analyze(t, "internal/server", src, NonDetSrc))
}

// TestNonDetSrcScopeCoversResultPackages: every package whose output reaches
// result bytes is guarded — the noise draws in internal/machine included —
// while the daemon, which times requests, is not.
func TestNonDetSrcScopeCoversResultPackages(t *testing.T) {
	const mod = "github.com/perfmetrics/eventlens/"
	for _, p := range []string{"internal/machine", "internal/cat", "internal/catio", "internal/cachesim",
		"internal/cpusim", "internal/gpusim", "internal/branchsim", "internal/analysis", "internal/matrix",
		"internal/platdef", "internal/suite", "internal/canonjson", "internal/seed", "internal/textplot"} {
		if !nonDetScope(mod + p) {
			t.Errorf("%s is outside the nondetsrc scope", p)
		}
	}
	for _, p := range []string{"internal/server", "internal/obs", "cmd/serve"} {
		if nonDetScope(mod + p) {
			t.Errorf("%s is inside the nondetsrc scope", p)
		}
	}
}

func TestErrSink(t *testing.T) {
	src := `package p

import (
	"fmt"
	"os"
	"strings"
)

func Bad(path string) {
	os.Remove(path) // line 10: flagged
}

func Explicit(path string) {
	_ = os.Remove(path) // ok: visible decision
}

func Deferred(f *os.File) {
	defer f.Close() // ok: defers are exempt
}

func PrintFamily(b *strings.Builder) {
	fmt.Println("hi")       // ok: fmt print family
	fmt.Fprintf(b, "x")     // ok: fmt print family
	b.WriteString("y")      // ok: Builder never fails
}

func Checked(path string) error {
	return os.Remove(path) // ok: propagated
}
`
	diags := analyze(t, "p", src, ErrSink)
	expect(t, diags, [2]int{0, 10})
}
