// Command verify is the repository's differential and metamorphic
// verification driver. It cross-checks the production numerics against the
// independent oracles in internal/oracle, runs every metamorphic pipeline
// invariant on every suite benchmark, and confirms the golden CLI snapshots
// exist. A non-zero exit status means the pipeline can no longer be trusted
// mechanically — some check found a disagreement.
//
// Usage:
//
//	verify            (full run: 200 randomized problems per family)
//	verify -quick     (CI lane: 50 problems per family, fewer seeds)
//	verify -bench branch -cases 25   (one benchmark, custom case count)
//	verify -chaos     (fault-injection lane only: replay, recovery,
//	                   degradation invariants on every benchmark)
//
// See TESTING.md for the verification strategy and tolerance rationale.
package main

import (
	"bytes"
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/oracle"
	"github.com/perfmetrics/eventlens/internal/platdef"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// goldenCLIs lists the commands whose golden snapshots must exist, relative
// to the repository root.
var goldenCLIs = []string{"analyze", "report", "tables", "figures", "avail", "catrun", "monitor", "validate"}

func main() {
	cli.Main("verify", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced run for CI: 50 cases per differential family, fewer metamorphic seeds")
	chaos := fs.Bool("chaos", false, "run only the fault-injection chaos lane (replay/recovery/degradation invariants)")
	seed := fs.Int64("seed", 1, "base seed for the randomized problem generator")
	cases := fs.Int("cases", 0, "override randomized cases per differential family")
	benchFilter := fs.String("bench", "", "only run metamorphic checks for these comma-separated benchmarks (default all)")
	skipGoldens := fs.Bool("skip-goldens", false, "skip the golden-snapshot existence check (for runs outside the repo root)")
	root := fs.String("root", ".", "repository root, for locating golden files")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	n, mseeds, wconfigs := 200, 5, 2
	if *quick {
		n, mseeds, wconfigs = 50, 2, 1
	}
	if *cases > 0 {
		n = *cases
	}
	benches, err := selectBenchmarks(*benchFilter)
	if err != nil {
		return cli.Usagef("%v", err)
	}

	var results []oracle.CheckResult

	// Chaos lane: the fault-injection subsystem's replay, recovery and
	// degradation invariants, end to end on real benchmarks. Runs alone —
	// its failures mean the resilience layer, not the numerics, broke.
	if *chaos {
		if *quick && *benchFilter == "" && len(benches) > 2 {
			benches = benches[:2]
		}
		fmt.Fprintf(stdout, "chaos checks (seed %d, %d benchmarks):\n", *seed, len(benches))
		res := oracle.CheckChaosSchedule(uint64(*seed))
		fmt.Fprintln(stdout, res.String())
		results = append(results, res)
		for _, bench := range benches {
			for _, res := range []oracle.CheckResult{
				oracle.CheckChaosReplay(bench, uint64(*seed)),
				oracle.CheckChaosRecoverable(bench, uint64(*seed)),
				oracle.CheckChaosUnrecoverable(bench, uint64(*seed)),
			} {
				fmt.Fprintln(stdout, res.String())
				results = append(results, res)
			}
		}
		return summarize(stdout, results)
	}

	// Differential lane: production numerics vs the independent oracles.
	fmt.Fprintf(stdout, "differential checks (seed %d, %d cases per family):\n", *seed, n)
	p := oracle.NewProblems(*seed)
	tol := oracle.DefaultTol()
	for _, res := range []oracle.CheckResult{
		oracle.CheckQRCPGaussian(p, n, tol),
		oracle.CheckQRCPGraded(p, n, tol),
		oracle.CheckQRCPRankDeficient(p, n),
		oracle.CheckQRSolve(p, n, tol),
		oracle.CheckLeastSquaresUnderdetermined(p, n, tol),
		oracle.CheckProjector(p, n, tol),
	} {
		fmt.Fprintln(stdout, res.String())
		results = append(results, res)
	}

	// Metamorphic lane: pipeline invariants on every suite benchmark.
	seeds := make([]int64, mseeds)
	for i := range seeds {
		seeds[i] = *seed + int64(i)
	}
	fmt.Fprintf(stdout, "\nmetamorphic checks (%d seeds per invariant):\n", mseeds)
	for _, bench := range benches {
		f, err := oracle.NewFixture(bench)
		if err != nil {
			return fmt.Errorf("fixture %s: %v", bench.Name, err)
		}
		res := oracle.CheckScaling(f, []float64{2, 3.5, 0.125, 1e4}, tol)
		fmt.Fprintln(stdout, res.String())
		results = append(results, res)

		res = oracle.CheckPermutation(f, seeds, tol)
		fmt.Fprintln(stdout, res.String())
		results = append(results, res)

		res, skipped := oracle.CheckJitter(f, seeds)
		if skipped > 0 {
			fmt.Fprintf(stdout, "     (%d events inside the jitter guard band were not asserted)\n", skipped)
		}
		fmt.Fprintln(stdout, res.String())
		results = append(results, res)

		res = oracle.CheckWorkersDeterminism(bench, *seed, wconfigs)
		fmt.Fprintln(stdout, res.String())
		results = append(results, res)
	}

	// Platform-data lane: every committed platform definition must
	// regenerate byte-identically from the platform it loads into, and the
	// composability matrix must be worker-count independent.
	fmt.Fprintln(stdout, "\nplatform-data checks:")
	res := checkPlatdefByteIdentity()
	fmt.Fprintln(stdout, res.String())
	results = append(results, res)
	res = checkMatrixDeterminism()
	fmt.Fprintln(stdout, res.String())
	results = append(results, res)

	// Golden lane: every CLI must have committed snapshots.
	if !*skipGoldens {
		fmt.Fprintln(stdout)
		res := checkGoldens(*root)
		fmt.Fprintln(stdout, res.String())
		results = append(results, res)
	}

	return summarize(stdout, results)
}

// summarize prints the pass/fail tally and converts failures to an error.
func summarize(stdout io.Writer, results []oracle.CheckResult) error {
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	fmt.Fprintf(stdout, "\nverify: %d checks, %d failed\n", len(results), failed)
	if failed > 0 {
		return fmt.Errorf("%d verification check(s) failed", failed)
	}
	return nil
}

// selectBenchmarks resolves the -bench filter against the suite registry.
func selectBenchmarks(filter string) ([]suite.Benchmark, error) {
	if filter == "" {
		return suite.All(), nil
	}
	var out []suite.Benchmark
	for _, name := range strings.Split(filter, ",") {
		b, err := suite.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// checkPlatdefByteIdentity round-trips every committed platform definition:
// file bytes -> loaded platform -> exported definition -> canonical bytes
// must reproduce the file exactly. A mismatch means the loader, the
// exporter, or the committed data drifted.
func checkPlatdefByteIdentity() oracle.CheckResult {
	res := oracle.CheckResult{Name: "platdef/byte-identity"}
	for _, name := range platdef.BuiltinNames() {
		res.Cases++
		want, err := platdef.BuiltinBytes(name)
		if err != nil {
			res.Err = err
			return res
		}
		p, err := machine.BuiltinPlatform(name)
		if err != nil {
			res.Err = err
			return res
		}
		def, err := machine.ExportDef(p)
		if err != nil {
			res.Err = fmt.Errorf("platform %s: %v", name, err)
			return res
		}
		if !bytes.Equal(def.Canonical(), want) {
			res.Err = fmt.Errorf("platform %s: exported canonical bytes differ from the committed file", name)
			return res
		}
	}
	return res
}

// checkMatrixDeterminism runs one composability-matrix slice serially and in
// parallel; the canonical envelopes must be byte-identical.
func checkMatrixDeterminism() oracle.CheckResult {
	res := oracle.CheckResult{Name: "matrix/worker-determinism", Cases: 2}
	reg, err := machine.NewRegistry()
	if err != nil {
		res.Err = err
		return res
	}
	req := matrix.Request{Platforms: []string{"spr", "graviton"}, Benchmarks: []string{"branch"}, Workers: 1}
	serial, err := matrix.Run(context.Background(), reg, req)
	if err != nil {
		res.Err = err
		return res
	}
	req.Workers = 8
	parallel, err := matrix.Run(context.Background(), reg, req)
	if err != nil {
		res.Err = err
		return res
	}
	a, errA := matrix.NewEnvelope(serial).Encode()
	b, errB := matrix.NewEnvelope(parallel).Encode()
	switch {
	case errA != nil || errB != nil:
		res.Err = cmp.Or(errA, errB)
	case !bytes.Equal(a, b):
		res.Err = fmt.Errorf("matrix envelope differs between Workers=1 and Workers=8")
	}
	return res
}

// checkGoldens verifies each golden CLI has at least one committed snapshot.
func checkGoldens(root string) oracle.CheckResult {
	res := oracle.CheckResult{Name: "golden/snapshots", Cases: len(goldenCLIs)}
	for _, name := range goldenCLIs {
		dir := filepath.Join(root, "cmd", name, "testdata", "golden")
		entries, err := os.ReadDir(dir)
		if err != nil {
			res.Err = fmt.Errorf("cmd/%s has no golden directory (%v) — run `go test ./cmd/%s -update`", name, err, name)
			return res
		}
		found := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".golden") {
				found++
			}
		}
		if found == 0 {
			res.Err = fmt.Errorf("cmd/%s has an empty golden directory — run `go test ./cmd/%s -update`", name, name)
			return res
		}
	}
	return res
}
