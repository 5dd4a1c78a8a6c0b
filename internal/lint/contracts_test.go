package lint

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// analyzeModule loads one package of a multi-file synthetic module and runs
// the given analyzers over it. files maps module-relative paths to source
// text; relDir names the package under test. Unlike analyze, this lets a
// test materialize helper packages (a stand-in internal/par, say) that the
// package under test imports.
func analyzeModule(t *testing.T, files map[string]string, relDir string, as ...*Analyzer) []Diagnostic {
	t.Helper()
	root := writeModule(t, files)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(relDir)))
	if err != nil {
		t.Fatal(err)
	}
	return RunWorkers([]*Package{pkg}, []*Package{pkg}, as, 0)
}

func TestCacheKeyFlagsMissingField(t *testing.T) {
	src := `package p

import "fmt"

// Config is cache-keyed.
//
// lint:cachekey
type Config struct {
	Tau     float64
	Retries int // line 10: flagged, never reaches String
	// lint:cachekey-exempt cannot change results
	Workers int
}

func (c Config) String() string { return fmt.Sprintf("tau=%g", c.Tau) }
`
	diags := analyze(t, "p", src, CacheKey)
	expect(t, diags, [2]int{0, 10})
}

// TestCacheKeyTransitiveReference pins the closure walk: a field rendered by
// a helper the canonical method calls counts as reaching the key.
func TestCacheKeyTransitiveReference(t *testing.T) {
	src := `package p

import "fmt"

// lint:cachekey
type Config struct {
	Tau   float64
	Alpha float64
}

func (c Config) String() string { return c.render() }

func (c Config) render() string { return fmt.Sprintf("tau=%g,alpha=%g", c.Tau, c.Alpha) }
`
	expect(t, analyze(t, "p", src, CacheKey))
}

func TestCacheKeyExemptNeedsReason(t *testing.T) {
	src := `package p

import "fmt"

// lint:cachekey
type Config struct {
	Tau float64
	// lint:cachekey-exempt
	Workers int // bare exemption flagged
}

func (c Config) String() string { return fmt.Sprintf("tau=%g", c.Tau) }
`
	diags := analyze(t, "p", src, CacheKey)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "needs a reason") {
		t.Fatalf("diags = %v, want one bare-exemption finding", diags)
	}
}

func TestCacheKeyRequiresCanonicalMethod(t *testing.T) {
	src := `package p

// lint:cachekey
type Config struct {
	Tau float64
}
`
	diags := analyze(t, "p", src, CacheKey)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "no String() or Key() method") {
		t.Fatalf("diags = %v, want a missing-method finding", diags)
	}
}

func TestCacheKeyUnmarkedStructIgnored(t *testing.T) {
	src := `package p

type Config struct {
	Tau     float64
	Retries int
}

func (c Config) String() string { return "x" }
`
	expect(t, analyze(t, "p", src, CacheKey))
}

func TestGoRawFlagsOutsideSanctionedPackages(t *testing.T) {
	src := `package p

import "sync"

func Fire(done chan struct{}) {
	go func() { done <- struct{}{} }() // line 6: flagged, raw go
}

func FanOut(n int) {
	var wg sync.WaitGroup // line 10: flagged, WaitGroup decl
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { wg.Done() }() // line 13: flagged, go in a loop
	}
	wg.Wait()
}
`
	diags := analyze(t, "p", src, GoRaw)
	expect(t, diags, [2]int{0, 6}, [2]int{0, 10}, [2]int{0, 13})
	if !strings.Contains(diags[2].Message, "fan-out in a loop") {
		t.Errorf("loop go message = %q, want the fan-out variant", diags[2].Message)
	}
}

// TestGoRawScope pins the sanctioned packages: internal/par and
// internal/server own their goroutines.
func TestGoRawScope(t *testing.T) {
	src := `package par

import "sync"

func For(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); fn(i) }(i)
	}
	wg.Wait()
}
`
	expect(t, analyze(t, "internal/par", src, GoRaw))
}

func TestLockByValueCopies(t *testing.T) {
	src := `package p

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c Counter) Value() int { // line 10: flagged, value receiver
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *Counter) Inc() { // ok: pointer receiver
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func Copies(a Counter, s []Counter) {
	b := a // line 23: flagged, assignment copies the lock
	_ = b
	for _, c := range s { // line 25: flagged, range copies per iteration
		_ = c
	}
	p := &a // ok: pointer share
	_ = p
}
`
	diags := analyze(t, "p", src, LockByValue)
	expect(t, diags, [2]int{0, 10}, [2]int{0, 23}, [2]int{0, 25})
}

func TestLockByValueVarDecl(t *testing.T) {
	src := `package p

import "sync"

func Decl(mu sync.Mutex) {
	var cp = mu // line 6: flagged
	_ = cp
	var fresh sync.Mutex // ok: zero-value initialization
	_ = fresh
}
`
	diags := analyze(t, "p", src, LockByValue)
	expect(t, diags, [2]int{0, 6})
}

// parStub is a minimal internal/par stand-in for seedcoord tests; the
// analyzer matches the callee's package path suffix, not the module.
const parStub = `package par

func For(workers, n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
`

func TestSeedCoordFlagsConstantSeed(t *testing.T) {
	app := `package app

import (
	"math/rand"

	"example.com/fixture/internal/par"
)

func Fill(out []float64) {
	par.For(0, len(out), func(i int) {
		src := rand.NewSource(42) // line 11: flagged, seed ignores i
		out[i] = float64(src.Int63())
	})
}
`
	diags := analyzeModule(t, map[string]string{
		"internal/par/par.go": parStub,
		"app/app.go":          app,
	}, "app", SeedCoord)
	expect(t, diags, [2]int{0, 11})
}

func TestSeedCoordAcceptsCoordinateSeeds(t *testing.T) {
	app := `package app

import (
	"math/rand"

	"example.com/fixture/internal/par"
)

type job struct{ seed int64 }

// Parameter-derived seed: each task mixes its index in.
func Fill(out []float64, base int64) {
	par.For(0, len(out), func(i int) {
		src := rand.NewSource(base + int64(i))
		out[i] = float64(src.Int63())
	})
}

// Struct-field seed through a reached method.
func (j job) run(i int) float64 {
	src := rand.NewSource(j.seed + int64(i))
	return float64(src.Int63())
}

func FillJobs(out []float64, j job) {
	par.For(0, len(out), func(i int) {
		out[i] = j.run(i)
	})
}

// Derived local: tainted through an assignment chain.
func FillDerived(out []float64) {
	par.For(0, len(out), func(i int) {
		coord := int64(i) * 1000003
		src := rand.NewSource(coord)
		out[i] = float64(src.Int63())
	})
}
`
	diags := analyzeModule(t, map[string]string{
		"internal/par/par.go": parStub,
		"app/app.go":          app,
	}, "app", SeedCoord)
	expect(t, diags)
}

// TestSeedCoordReachedFunction pins the closure walk: a named function the
// par body calls is checked too, with its parameters as the coordinates.
func TestSeedCoordReachedFunction(t *testing.T) {
	app := `package app

import (
	"math/rand"

	"example.com/fixture/internal/par"
)

func task(i int) float64 {
	src := rand.NewSource(7) // line 10: flagged, constant seed in reached fn
	return float64(src.Int63()) + float64(i)
}

func Fill(out []float64) {
	par.For(0, len(out), func(i int) {
		out[i] = task(i)
	})
}

// Outside any par fan-out the same construction is fine (nondetsrc owns
// unseeded sources; seedcoord only polices fan-out coordination).
func Serial() float64 {
	src := rand.NewSource(7)
	return float64(src.Int63())
}
`
	diags := analyzeModule(t, map[string]string{
		"internal/par/par.go": parStub,
		"app/app.go":          app,
	}, "app", SeedCoord)
	expect(t, diags, [2]int{0, 10})
}

// TestSeedConstructorsExist: every module-local entry of the seedcoord
// constructor table names a function of this module's package, so renaming
// the generator's constructor away cannot quietly blind the analyzer.
func TestSeedConstructorsExist(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range seedConstructors {
		if !strings.HasPrefix(key[0], "internal/") {
			continue
		}
		pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(key[0])))
		if err != nil {
			t.Fatal(err)
		}
		if fn, _ := pkg.Types.Scope().Lookup(key[1]).(*types.Func); !isSeedConstructor(fn) {
			t.Errorf("seedConstructors names %s.%s, which is not a function there", key[0], key[1])
		}
	}
}
