package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"

	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/par"
	"github.com/perfmetrics/eventlens/internal/server"
	"github.com/perfmetrics/eventlens/internal/validate"
)

// auditSample is how many distinct requests a run audits; a workload with
// fewer distinct requests has every one audited.
const auditSample = 32

// auditItem is one served response, reduced to what the audit compares.
type auditItem struct {
	idx    int
	req    request
	digest uint64 // of the response body
	report uint64 // of the analyze report text
}

// sampleForAudit picks the requests to audit from a phase's distinct
// requests: all of them, or the auditSample whose first request index has
// the smallest seeded score.
func sampleForAudit(keys map[string]*seen, seed uint64) []auditItem {
	var items []auditItem
	for _, s := range keys {
		items = append(items, auditItem{idx: s.idx, req: s.req, digest: s.digest, report: s.report})
	}
	score := func(it auditItem) uint64 { return draw(seed, streamSample, it.idx) }
	sort.Slice(items, func(a, b int) bool { return score(items[a]) < score(items[b]) })
	if len(items) > auditSample {
		items = items[:auditSample]
	}
	sort.Slice(items, func(a, b int) bool { return items[a].idx < items[b].idx })
	return items
}

// audit recomputes every item by calling the modules directly, after the
// timed phase: an analysis must carry core.FormatAnalysisReport's text, and
// a validation or matrix must be byte-equal to its canonical envelope. A
// sharded tier's bodies must also equal single-process serving. It returns
// one message per mismatch.
func audit(ctx context.Context, w *workload, items []auditItem) ([]string, error) {
	reg, err := machine.NewRegistry()
	if err != nil {
		return nil, err
	}
	var single http.Handler
	if w.replicas > 1 {
		s, err := server.New(server.Config{CacheSize: w.cacheSize, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			return nil, err
		}
		single = s.Handler()
	}
	found := make([]string, len(items))
	err = par.ForErr(clients, len(items), func(i int) error {
		it := items[i]
		ok, err := matchesReference(ctx, reg, it)
		if err != nil {
			return fmt.Errorf("audit of request %d (%s): %w", it.idx, it.req.Body, err)
		}
		if !ok {
			found[i] = fmt.Sprintf("request %d (%s %s): response differs from the direct-call reference", it.idx, it.req.Path, it.req.Body)
			return nil
		}
		if single != nil {
			rec := httptest.NewRecorder()
			single.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, it.req.Path, bytes.NewReader(it.req.Body)))
			if rec.Code != http.StatusOK || digest(rec.Body.Bytes()) != it.digest {
				found[i] = fmt.Sprintf("request %d (%s %s): tier response differs from single-process serving", it.idx, it.req.Path, it.req.Body)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var mismatches []string
	for _, m := range found {
		if m != "" {
			mismatches = append(mismatches, m)
		}
	}
	return mismatches, nil
}

// matchesReference computes an item's reference output directly.
func matchesReference(ctx context.Context, reg *machine.Registry, it auditItem) (bool, error) {
	switch it.req.endpoint() {
	case "validate":
		rep, err := validate.Run(ctx, *it.req.Validate)
		if err != nil {
			return false, err
		}
		return digest(validate.NewEnvelope(rep).CanonicalJSON()) == it.digest, nil
	case "matrix":
		rep, err := matrix.Run(ctx, reg, *it.req.Matrix)
		if err != nil {
			return false, err
		}
		return digest(matrix.NewEnvelope(rep).CanonicalJSON()) == it.digest, nil
	}
	b, run, cfg, err := resolveAnalyze(it.req.Analyze)
	if err != nil {
		return false, err
	}
	set, err := b.Collect(ctx, run)
	if err != nil {
		return false, err
	}
	res, err := b.AnalyzeSet(ctx, set, cfg)
	if err != nil {
		return false, err
	}
	defs, err := res.DefineMetrics(b.Signatures)
	if err != nil {
		return false, err
	}
	report := core.FormatAnalysisReport(res, cfg.ProjectionTol, b.MetricTable, defs)
	return digestString(report) == it.report, nil
}
