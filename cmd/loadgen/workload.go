package main

import (
	"encoding/json"
	"fmt"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/suite"
	"github.com/perfmetrics/eventlens/internal/validate"
)

// The three endpoints the workloads drive.
const (
	pathAnalyze  = "/v1/analyze"
	pathValidate = "/v1/events/validate"
	pathMatrix   = "/v1/matrix"
)

// analyzeRequest is the /v1/analyze payload.
type analyzeRequest struct {
	Benchmark string         `json:"benchmark"`
	Run       *cat.RunConfig `json:"run,omitempty"`
	Config    *core.Config   `json:"config,omitempty"`
}

// request is one generated API call: the wire body plus its decoded form,
// which the audit and the traced replay consume. Exactly one of Analyze,
// Validate and Matrix is set, matching Path.
type request struct {
	Path     string
	Body     []byte
	Analyze  *analyzeRequest
	Validate *validate.Request
	Matrix   *matrix.Request
}

// endpoint names the request's endpoint family: analyze, validate or matrix.
func (r request) endpoint() string {
	switch {
	case r.Validate != nil:
		return "validate"
	case r.Matrix != nil:
		return "matrix"
	}
	return "analyze"
}

func newRequest(path string, payload any) request {
	body, err := json.Marshal(payload)
	if err != nil {
		// The payloads are plain structs of strings, numbers and slices.
		panic(fmt.Sprintf("loadgen: marshal %T: %v", payload, err))
	}
	r := request{Path: path, Body: body}
	switch p := payload.(type) {
	case analyzeRequest:
		r.Analyze = &p
	case validate.Request:
		r.Validate = &p
	case matrix.Request:
		r.Matrix = &p
	}
	return r
}

// workload is one traffic mix. The program under test sees only the
// requests gen produces. No recorded daemon traffic exists to take the
// mixes from: they are the shapes assumed when the benchmark was specified,
// each drawn from its stated distribution and not tuned afterwards.
type workload struct {
	name string
	why  string
	// replicas is the number of eventlensd replicas; clients talk to the
	// first, and with two or more the replicas form a sharded tier.
	replicas int
	// cacheSize is each replica's result-cache size (0 = server default).
	cacheSize int
	// store gives each replica a persistent result store.
	store bool
	// warm lists the requests set-up serves before timing starts.
	warm []request
	// gen returns request i of the seeded sequence.
	gen func(seed uint64, i int) request
}

// clients is the number of closed-loop clients: one per vCPU of the
// reference machine (nproc = 2).
const clients = 2

// workloads returns the benchmark's workloads in report order.
func workloads() []*workload {
	return []*workload{serveHot(), analyzeCold(), tierSweep(), matrixBatch()}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Streams keep the draws of different decisions independent.
const (
	streamPick uint64 = iota + 1
	streamKey
	streamAlpha
	streamRevisit
	streamSample
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is a pure function of (seed, stream, i): the generators' only source
// of randomness, so request i is the same however many clients share the
// sequence.
func draw(seed, stream uint64, i int) uint64 {
	return mix64(mix64(mix64(seed)^stream) ^ uint64(i))
}

// unit maps a draw onto [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// pick returns element i's uniform draw from choices on one stream.
func pick[T any](seed, stream uint64, i int, choices []T) T {
	return choices[draw(seed, stream, i)%uint64(len(choices))]
}

// nudge returns x·(1 + i·1e-9): a threshold numerically equal for the
// analysis but distinct in every cache key.
func nudge(x float64, i int) float64 { return x * (1 + float64(i+1)*1e-9) }

// serveHot: eleven keys warmed during set-up and then drawn uniformly, so
// every timed request is a memory hit.
func serveHot() *workload {
	var keys []request
	for _, b := range suite.Names() {
		keys = append(keys, newRequest(pathAnalyze, analyzeRequest{Benchmark: b}))
	}
	for _, b := range suite.Names() {
		keys = append(keys, newRequest(pathAnalyze, analyzeRequest{Benchmark: b, Run: &cat.RunConfig{Reps: 3, Threads: 2}}))
	}
	for _, p := range []string{"spr", "mi250x"} {
		keys = append(keys, newRequest(pathValidate, validate.Request{Platform: p}))
	}
	keys = append(keys, newRequest(pathMatrix, matrix.Request{
		Platforms: []string{"zen4", "icl"}, Benchmarks: []string{"branch", "cpu-flops"}}))
	return &workload{
		name:     "serve-hot",
		why:      "every request is a memory-cache hit: measures the HTTP front, JSON decoding, key building and the response write",
		replicas: 1,
		warm:     keys,
		gen: func(seed uint64, i int) request {
			return pick(seed, streamPick, i, keys)
		},
	}
}

// analyzeCold: every request is a new analysis key. The benchmark, reps
// (3-8) and threads (1-2; dcache 2-4) are drawn uniformly, giving 54
// measurement keys, which outnumber the server's 8-entry measurement-set
// cache, so most requests collect.
func analyzeCold() *workload {
	benches := suite.All()
	runs := make([][]cat.RunConfig, len(benches))
	// Set-up analyses each benchmark once at reps=2 and the default tau, a
	// key no timed request uses, so that lazy state is built before timing.
	var warm []request
	for bi, b := range benches {
		warm = append(warm, newRequest(pathAnalyze, analyzeRequest{Benchmark: b.Name,
			Run: &cat.RunConfig{Reps: 2, Threads: b.DefaultRun.Threads}}))
		threads := []int{1, 2}
		if b.Name == "dcache" {
			threads = []int{2, 3, 4}
		}
		for reps := 3; reps <= 8; reps++ {
			for _, t := range threads {
				runs[bi] = append(runs[bi], cat.RunConfig{Reps: reps, Threads: t})
			}
		}
	}
	return &workload{
		name:     "analyze-cold",
		why:      "every request is a new analysis and most collect: measures the simulators and the cat collection layer",
		replicas: 1,
		warm:     warm,
		gen: func(seed uint64, i int) request {
			bi := int(draw(seed, streamPick, i) % uint64(len(benches)))
			b := benches[bi]
			run := pick(seed, streamKey, i, runs[bi])
			cfg := b.Config
			cfg.Tau = nudge(cfg.Tau, i)
			return newRequest(pathAnalyze, analyzeRequest{Benchmark: b.Name, Run: &run, Config: &cfg})
		},
	}
}

// tierPattern lays out tier-sweep's requests: true issues a new key, false
// revisits an old one, so 60% are new and 40% revisits.
var tierPattern = []bool{true, true, false, true, false}

// revisitGap is how many new keys, at least, were issued after the key a
// revisit goes back to.
const revisitGap = 32

// tierSweepCache is each tier-sweep replica's result-cache size.
const tierSweepCache = 32

// tierSlot returns how many new keys precede request i and whether request
// i issues a new one. The first revisitGap+1 requests are all new, so the
// first revisit has a key to go back to.
func tierSlot(i int) (newBefore int, isNew bool) {
	const fresh = revisitGap + 1
	if i < fresh {
		return i, true
	}
	j := i - fresh
	newBefore = fresh
	for k, n := range tierPattern {
		if n {
			newBefore += j / len(tierPattern)
			if k < j%len(tierPattern) {
				newBefore++
			}
		}
	}
	return newBefore, tierPattern[j%len(tierPattern)]
}

// sweepKey is the k-th new key of tier-sweep: a threshold sweep over one of
// the four default measurement sets.
func sweepKey(benches []suite.Benchmark, seed uint64, k int) request {
	b := pick(seed, streamPick, k, benches)
	cfg := b.Config
	cfg.Alpha *= 0.5 + unit(draw(seed, streamAlpha, k))
	cfg.Tau = nudge(cfg.Tau, k)
	return newRequest(pathAnalyze, analyzeRequest{Benchmark: b.Name, Run: &b.DefaultRun, Config: &cfg})
}

// tierSweep: two replicas with persistent stores and 32-entry caches,
// threshold sweeps over the four default measurement sets. A revisit goes
// back to a uniformly drawn key among those issued at least revisitGap new
// keys earlier.
func tierSweep() *workload {
	benches := suite.All()
	var warm []request
	for _, b := range benches {
		warm = append(warm, newRequest(pathAnalyze, analyzeRequest{Benchmark: b.Name, Run: &b.DefaultRun, Config: &b.Config}))
	}
	return &workload{
		name:      "tier-sweep",
		why:       "collection is amortised: measures the core stages, report rendering, store reads and writes and shard forwarding",
		replicas:  2,
		cacheSize: tierSweepCache,
		store:     true,
		warm:      warm,
		gen: func(seed uint64, i int) request {
			k, isNew := tierSlot(i)
			if !isNew {
				// Keys 0..k-1 exist; key t has k-1-t newer ones.
				k = int(draw(seed, streamRevisit, i) % uint64(k-revisitGap))
			}
			return sweepKey(benches, seed, k)
		},
	}
}

// Matrix-batch's choices: a CPU pair is one of the registry's CPU platforms
// with one of the CPU benchmarks, a GPU pair runs gpu-flops on one of the
// GPU platforms, and a validation checks spr or mi250x.
var (
	cpuPlatforms     = []string{"spr", "zen4", "icl", "graviton", "spr-smtoff"}
	cpuBenchmarks    = []string{"branch", "cpu-flops", "dcache"}
	gpuPlatforms     = []string{"mi250x", "h100"}
	checkedPlatforms = []string{"spr", "mi250x"}
)

// matrixBatch: single-pair matrices and validations with perturbed
// thresholds, so every key is new. Half the requests are CPU pairs, a
// quarter GPU pairs and a quarter validations, each drawn uniformly.
func matrixBatch() *workload {
	return &workload{
		name:     "matrix-batch",
		why:      "single-pair matrices pin collection to one worker, the reference dcache engine: batch traffic the other workloads bypass",
		replicas: 1,
		// Set-up serves one cheap request of each kind at the default
		// threshold and tolerances, which no timed request uses.
		warm: []request{
			newRequest(pathMatrix, matrix.Request{Platforms: []string{"zen4"}, Benchmarks: []string{"branch"}}),
			newRequest(pathMatrix, matrix.Request{Platforms: []string{"h100"}, Benchmarks: []string{"gpu-flops"}}),
			newRequest(pathValidate, validate.Request{Platform: "mi250x"}),
		},
		gen: func(seed uint64, i int) request {
			pair := func(platform, bench string) request {
				return newRequest(pathMatrix, matrix.Request{
					Platforms:  []string{platform},
					Benchmarks: []string{bench},
					Threshold:  nudge(matrix.DefaultThreshold, i),
				})
			}
			switch draw(seed, streamPick, i) % 4 {
			case 0, 1:
				c := int(draw(seed, streamKey, i) % uint64(len(cpuPlatforms)*len(cpuBenchmarks)))
				return pair(cpuPlatforms[c/len(cpuBenchmarks)], cpuBenchmarks[c%len(cpuBenchmarks)])
			case 2:
				return pair(pick(seed, streamKey, i, gpuPlatforms), "gpu-flops")
			}
			tol := validate.DefaultTolerances()
			tol.NoisyTau = nudge(tol.NoisyTau, i)
			return newRequest(pathValidate, validate.Request{Platform: pick(seed, streamKey, i, checkedPlatforms), Tolerances: &tol})
		},
	}
}
