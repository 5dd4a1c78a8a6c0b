// Client example: drive the eventlensd HTTP API end to end — discover the
// benchmark registry, run an analysis, derive one metric definition, and
// fetch the PAPI-style presets. Requests and responses are the daemon's own
// types (internal/analysis).
//
// Start the daemon first, then point the client at it:
//
//	go run ./cmd/serve -addr :8080 &
//	go run ./examples/client -addr http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/fault"
)

// Retry policy against a daemon running with -chaos or under load:
// transient 503/504 rejections, 429 admission rejections and transport
// blips are retried with the same seeded exponential backoff the daemon
// itself uses, so a chaos demo's client-side schedule is replayable too. A
// Retry-After hint raises (never lowers) the computed backoff.
const (
	retryAttempts = 4
	retryBase     = 100 * time.Millisecond
	retryMax      = 2 * time.Second
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("client: ")
	addr := flag.String("addr", "http://localhost:8080", "eventlensd base URL")
	bench := flag.String("bench", "cpu-flops", "benchmark to analyze")
	metric := flag.String("metric", "DP Ops.", "metric to define")
	flag.Parse()
	base := strings.TrimSuffix(*addr, "/")

	// 1. What can the service analyze?
	var registry struct {
		Benchmarks []struct {
			Name     string   `json:"name"`
			Platform string   `json:"platform"`
			Metrics  []string `json:"metrics"`
		} `json:"benchmarks"`
	}
	getJSON(base+"/v1/benchmarks", &registry)
	fmt.Println("benchmarks served:")
	for _, b := range registry.Benchmarks {
		fmt.Printf("  %-10s on %-10s (%d metrics)\n", b.Name, b.Platform, len(b.Metrics))
	}

	// 2. Run the full analysis (the server caches it, so the metric
	// definition below reuses this pipeline execution).
	var res analysis.Response
	postJSON(base+"/v1/analyze", analysis.Request{Benchmark: *bench}, &res)
	fmt.Printf("\n%s selected %d independent events on %s:\n", *bench, len(res.SelectedEvents), res.Platform)
	for _, e := range res.SelectedEvents {
		fmt.Println("  ", e)
	}

	// 3. Derive one metric definition over HTTP.
	var def analysis.DefineResponse
	postJSON(base+"/v1/metrics/define", analysis.DefineRequest{Request: analysis.Request{Benchmark: *bench}, Metric: *metric}, &def)
	fmt.Printf("\n%s", def.Text)
	if def.Preset != nil {
		fmt.Printf("as PAPI preset: %s = %s over %s\n",
			def.Preset.Name, def.Preset.Postfix, strings.Join(def.Preset.Events, ", "))
	}

	// 4. And the full preset file, as text.
	resp, err := do(func() (*http.Response, error) {
		return http.Get(base + "/v1/presets/" + *bench)
	}, base+"/v1/presets/"+*bench)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	fmt.Printf("\npresets for %s:\n%s", *bench, text)
}

// do issues a request with retries: transport errors and retryable statuses
// (503 Service Unavailable and 504 Gateway Timeout from the daemon's chaos
// middleware, 429 Too Many Requests from its admission control) back off
// and try again; anything else returns as-is.
func do(send func() (*http.Response, error), url string) (*http.Response, error) {
	seed := fault.SeedFor("client", url)
	var resp *http.Response
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = send()
		retryable := err != nil ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout ||
			resp.StatusCode == http.StatusTooManyRequests
		if !retryable || attempt >= retryAttempts {
			return resp, err
		}
		delay := fault.BackoffDelay(retryBase, retryMax, seed, attempt)
		if err == nil {
			// An overloaded daemon says how long to stay away; honor the
			// hint when it exceeds the seeded backoff.
			if hint := retryAfter(resp); hint > delay {
				delay = hint
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			log.Printf("%s: %s, retrying (attempt %d)", url, resp.Status, attempt+1)
		} else {
			log.Printf("%s: %v, retrying (attempt %d)", url, err, attempt+1)
		}
		time.Sleep(delay)
	}
}

// retryAfter parses a response's Retry-After header (delay-seconds form; the
// daemon never sends HTTP dates). Absent or malformed hints are zero.
func retryAfter(resp *http.Response) time.Duration {
	seconds, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || seconds < 0 {
		return 0
	}
	return time.Duration(seconds) * time.Second
}

func getJSON(url string, dst any) {
	resp, err := do(func() (*http.Response, error) { return http.Get(url) }, url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	decode(resp, dst)
}

func postJSON(url string, body, dst any) {
	payload, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := do(func() (*http.Response, error) {
		return http.Post(url, "application/json", bytes.NewReader(payload))
	}, url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	decode(resp, dst)
}

func decode(resp *http.Response, dst any) {
	if resp.StatusCode != http.StatusOK {
		text, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s: %s\n%s", resp.Request.URL, resp.Status, text)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatalf("%s: decoding response: %v", resp.Request.URL, err)
	}
}
