package main

// End-to-end smoke tests for the cmd/ binaries: builds the CLIs and
// eventlensd with the real toolchain, boots the daemon on an ephemeral
// port, and checks that the service returns the paper's Table V result —
// byte-identical to the batch tool's report, with built-in platforms and
// with a -platform-dir alike — then shuts down cleanly on SIGTERM with exit
// status 0.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// buildBinaries compiles the named cmd/ packages into a temp dir and
// returns their paths in argument order.
func buildBinaries(t *testing.T, cmds ...string) []string {
	t.Helper()
	dir := t.TempDir()
	bins := make([]string, len(cmds))
	for i, c := range cmds {
		bins[i] = filepath.Join(dir, c)
		cmd := exec.Command("go", "build", "-o", bins[i], "./cmd/"+c)
		cmd.Dir = filepath.Join("..", "..") // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", c, err, out)
		}
	}
	return bins
}

func TestEndToEndAnalyzeAndServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bins := buildBinaries(t, "analyze", "serve")
	analyzeBin, serveBin := bins[0], bins[1]

	// 1. Batch reference: the analyze CLI's report for cpu-flops.
	batch, err := exec.Command(analyzeBin, "-bench", "cpu-flops").Output()
	if err != nil {
		t.Fatalf("analyze -bench cpu-flops: %v", err)
	}
	if !strings.Contains(string(batch), "metric definitions (paper Table V):") {
		t.Fatalf("unexpected analyze output:\n%s", batch)
	}

	// 2. Boot eventlensd on an ephemeral port.
	srv, base := startDaemon(t, serveBin, "-shutdown-timeout", "10s")

	// 3. Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// 4. The service derives the paper's DP Ops definition...
	resp, err = http.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"benchmark":"cpu-flops"}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Metrics []struct {
			Metric string `json:"metric"`
			Terms  []struct {
				Event string  `json:"event"`
				Coeff float64 `json:"coeff"`
			} `json:"terms"`
			Composable bool `json:"composable"`
		} `json:"metrics"`
		Report string `json:"report"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d", resp.StatusCode)
	}
	wantCoeffs := map[string]float64{
		"FP_ARITH_INST_RETIRED:SCALAR_DOUBLE":      1,
		"FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE": 2,
		"FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE": 4,
		"FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE": 8,
	}
	foundDP := false
	for _, m := range body.Metrics {
		if m.Metric != "DP Ops." {
			continue
		}
		foundDP = true
		if !m.Composable {
			t.Fatal("DP Ops. not composable over HTTP")
		}
		for _, term := range m.Terms {
			if want, ok := wantCoeffs[term.Event]; ok && math.Abs(term.Coeff-want) > 1e-8 {
				t.Errorf("DP Ops: %s = %v, want %v", term.Event, term.Coeff, want)
			}
		}
	}
	if !foundDP {
		t.Fatal("DP Ops. metric missing from /v1/analyze response")
	}

	// ...and its report is byte-identical to the batch tool's.
	if !bytes.Equal([]byte(body.Report), batch) {
		t.Fatalf("service report differs from analyze CLI output:\n--- service ---\n%s\n--- batch ---\n%s",
			body.Report, batch)
	}

	// 5. Graceful shutdown: SIGTERM drains and exits 0.
	stopDaemon(t, srv)
}

// startDaemon boots eventlensd on an ephemeral port with two workers and
// extra flags, and returns the process and its base URL. The process is
// killed when the test ends, whatever its state.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	srv := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, args...)...)
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Process.Kill() })
	return srv, waitListening(t, stdout)
}

// stopDaemon sends SIGTERM and requires eventlensd to drain and exit 0.
func stopDaemon(t *testing.T, srv *exec.Cmd) {
	t.Helper()
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("eventlensd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("eventlensd did not exit after SIGTERM")
	}
}

// waitListening scans the daemon's stdout for the listening banner and
// returns the base URL.
func waitListening(t *testing.T, stdout interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "eventlensd listening on ") {
				lines <- strings.TrimPrefix(sc.Text(), "eventlensd listening on ")
				return
			}
		}
	}()
	select {
	case base := <-lines:
		return base
	case <-time.After(15 * time.Second):
		t.Fatal("eventlensd never announced its address")
		return ""
	}
}

// TestAnalyzeCLIFlags smoke-tests the batch CLI's optional outputs so the
// cmd/ layer keeps at least one test over its flag surface.
func TestAnalyzeCLIFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	analyzeBin := buildBinaries(t, "analyze")[0]
	out, err := exec.Command(analyzeBin, "-bench", "branch", "-presets", "-ratios").Output()
	if err != nil {
		t.Fatalf("analyze -bench branch: %v", err)
	}
	for _, want := range []string{
		"metric definitions (paper Table VII):",
		"PRESET,PAPI_MISPREDICTED_BRANCHES,DERIVED_POSTFIX,",
		"derived ratio metrics:",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

// overrideDir writes a platform dir that changes bytes on every endpoint
// family: custom-sim, a renamed zen4-sim, and an spr-sim whose FP_ARITH
// events count FMA once instead of twice — the double count behind Table
// V's 0.236 backward error.
func overrideDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []struct{ name, from, old, new string }{
		{"custom-sim", "zen4-sim", "platform zen4-sim", "platform custom-sim"},
		{"spr-sim", "spr-sim", ".fma=2", ".fma=1"},
	} {
		raw, err := platdef.BuiltinBytes(f.from)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.ReplaceAll(raw, []byte(f.old), []byte(f.new))
		if bytes.Equal(edited, raw) {
			t.Fatalf("%s: edit %q changed nothing", f.name, f.old)
		}
		if err := os.WriteFile(filepath.Join(dir, f.name+".pdef"), edited, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPlatformsDirDaemonMatchesCLIs: one -platform-dir, one set of bytes.
// eventlensd and the CLIs load the dir into the same registry, so the
// daemon's analyze report, validation envelope and matrix envelope equal
// `analyze`, `validate -json` and `figures -fig matrix -json` on that dir.
func TestPlatformsDirDaemonMatchesCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bins := buildBinaries(t, "analyze", "validate", "figures", "serve")
	dir := overrideDir(t)
	run := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(args[0], args[1:]...).Output()
		if err != nil {
			t.Fatalf("%s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	analyzeOut := run(bins[0], "-bench", "cpu-flops", "-platform-dir", dir)
	if bytes.Equal(analyzeOut, run(bins[0], "-bench", "cpu-flops")) {
		t.Fatal("the platform dir did not change the analysis; the test has no teeth")
	}
	validateOut := run(bins[1], "-platform-dir", dir, "-platform", "custom", "-json")
	matrixOut := run(bins[2], "-fig", "matrix", "-platform-dir", dir, "-platforms", "spr,custom", "-benchmarks", "cpu-flops", "-json")

	srv, base := startDaemon(t, bins[3], "-platform-dir", dir)
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %v %s", path, body, resp.StatusCode, err, got)
		}
		return got
	}

	var analysis struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal(post("/v1/analyze", `{"benchmark":"cpu-flops"}`), &analysis); err != nil {
		t.Fatal(err)
	}
	if analysis.Report != string(analyzeOut) {
		t.Errorf("/v1/analyze report differs from analyze -platform-dir:\n--- daemon\n%s\n--- cli\n%s", analysis.Report, analyzeOut)
	}
	if got := post("/v1/events/validate", `{"platform":"custom"}`); !bytes.Equal(got, validateOut) {
		t.Errorf("/v1/events/validate differs from validate -platform-dir -json:\n--- daemon\n%s\n--- cli\n%s", got, validateOut)
	}
	if got := post("/v1/matrix", `{"platforms":["spr","custom"],"benchmarks":["cpu-flops"]}`); !bytes.Equal(got, matrixOut) {
		t.Errorf("/v1/matrix differs from figures -fig matrix -platform-dir -json:\n--- daemon\n%s\n--- cli\n%s", got, matrixOut)
	}
	stopDaemon(t, srv)
}

// TestPlatformsAnalyzeRequestDaemonMatchesCLI: the platform is a field of
// the analysis request, so `analyze -bench branch -platform graviton` prints
// exactly the report of /v1/analyze on graviton, and define and explain
// take the same field.
func TestPlatformsAnalyzeRequestDaemonMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	bins := buildBinaries(t, "analyze", "serve")
	cli, err := exec.Command(bins[0], "-bench", "branch", "-platform", "graviton").Output()
	if err != nil {
		t.Fatalf("analyze -bench branch -platform graviton: %v", err)
	}
	srv, base := startDaemon(t, bins[1])
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %v %s", path, body, resp.StatusCode, err, got)
		}
		return got
	}
	var analysis struct {
		Platform string `json:"platform"`
		Report   string `json:"report"`
	}
	if err := json.Unmarshal(post("/v1/analyze", `{"benchmark":"branch","platform":"graviton"}`), &analysis); err != nil {
		t.Fatal(err)
	}
	if analysis.Platform != "graviton-sim" || analysis.Report != string(cli) {
		t.Errorf("/v1/analyze on %s differs from analyze -platform graviton:\n--- daemon\n%s\n--- cli\n%s", analysis.Platform, analysis.Report, cli)
	}
	post("/v1/metrics/define", `{"benchmark":"branch","platform":"graviton","metric":"Conditional Branches Taken."}`)
	post("/v1/events/explain", `{"benchmark":"branch","platform":"graviton","event":"all"}`)
	stopDaemon(t, srv)
}
