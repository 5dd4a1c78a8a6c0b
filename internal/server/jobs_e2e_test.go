package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// pollJob GETs a job until pred(view) or the deadline, failing on HTTP errors.
func pollJob(t *testing.T, h http.Handler, id string, pred func(jobView) bool) jobView {
	t.Helper()
	// Generous: cancellation of a running job only surfaces at the next
	// inter-stage context check, and collection is ~15x slower under -race.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		w := get(t, h, "/v1/jobs/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("poll: %d %s", w.Code, w.Body)
		}
		var view jobView
		if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		if pred(view) {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(v jobView) bool {
	return v.Status == jobDone || v.Status == jobFailed || v.Status == jobCanceled
}

// TestJobCancelRunning cancels a job mid-pipeline: the dcache benchmark's
// collection gives a second-wide window in which the job is reliably running.
// DELETE must be acknowledged immediately and the job must end canceled, not
// done — the worker's context is the pipeline's context.
func TestJobCancelRunning(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.startJobWorkers(ctx)
	h := s.Handler()

	w := postJSON(t, h, "/v1/jobs", `{"benchmark":"dcache"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("enqueue: %d %s", w.Code, w.Body)
	}
	var view jobView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}

	view = pollJob(t, h, view.ID, func(v jobView) bool { return v.Status != jobQueued })
	if view.Status != jobRunning {
		t.Fatalf("job finished before it could be canceled (status %q) — need a slower benchmark", view.Status)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+view.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body)
	}

	view = pollJob(t, h, view.ID, terminal)
	if view.Status != jobCanceled {
		t.Fatalf("status after cancel = %q (error %q), want %q", view.Status, view.Error, jobCanceled)
	}
	if view.Error == "" || view.Finished == "" {
		t.Errorf("canceled job missing error/finished fields: %+v", view)
	}

	// A canceled job cannot be canceled again.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+view.ID, nil))
	decodeEnvelope(t, rec, http.StatusConflict)
}

// TestJobCancelRightAfterClaim pins the claim/cancel handoff without timing:
// the test plays the worker's part by hand, so the DELETE lands after the job
// is claimed (running) but before its pipeline starts. The DELETE must cancel
// the context the pipeline then runs under, so the job ends canceled — not
// acknowledged with 200 and then recorded done.
func TestJobCancelRightAfterClaim(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()

	w := postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("enqueue: %d %s", w.Code, w.Body)
	}
	j := <-s.jobs.queue
	jctx, cancel, ok := j.claim(context.Background(), s.jobs.timeout)
	if !ok {
		t.Fatal("claim refused a queued job")
	}
	defer cancel()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+j.id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body)
	}
	if jctx.Err() == nil {
		t.Fatal("DELETE was acknowledged but left the claimed job's context live")
	}

	result, err := s.runJobResilient(jctx, j)
	j.finish(result, err)
	if view := j.snapshot(); view.Status != jobCanceled {
		t.Fatalf("status after cancel = %q (error %q), want %q", view.Status, view.Error, jobCanceled)
	}
}

// TestJobTimeout gives the worker pool a timeout no pipeline can meet (the
// deadline has already passed by the first context check): the job must end
// failed (not canceled — nobody asked for cancellation) with a deadline
// error, and the worker must survive to run the next job.
func TestJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.startJobWorkers(ctx)
	h := s.Handler()

	w := postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("enqueue: %d %s", w.Code, w.Body)
	}
	var view jobView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}

	view = pollJob(t, h, view.ID, terminal)
	if view.Status != jobFailed {
		t.Fatalf("status = %q (error %q), want %q", view.Status, view.Error, jobFailed)
	}
	if !strings.Contains(view.Error, "deadline") {
		t.Errorf("error should mention the deadline: %q", view.Error)
	}

	// The pool is still alive: a second job reaches a terminal state too.
	w = postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("second enqueue: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	pollJob(t, h, view.ID, terminal)
}

// TestJobRegistryBounded: the registry keeps at most CacheSize finished
// jobs, forgetting the oldest first, so a long-lived daemon does not hold
// every result body it ever computed. The bound is never below
// QueueDepth+Workers, the most jobs that can be outstanding at once, so
// every job of a full burst is still there once the burst has finished. A
// job canceled while queued counts as finished once a worker dequeues it. An
// evicted id is a 404 to GET and DELETE alike, like an id that never existed.
func TestJobRegistryBounded(t *testing.T) {
	// CacheSize 1 is below the 3+1 jobs that can be outstanding: 4 are kept.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 3, CacheSize: 1})
	h := s.Handler()
	var ids []string
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			w := postJSON(t, h, "/v1/jobs", `{"benchmark":"branch"}`)
			if w.Code != http.StatusAccepted {
				t.Fatalf("enqueue %d: %d %s", len(ids), w.Code, w.Body)
			}
			var view jobView
			if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, view.ID)
		}
	}
	enqueue(3)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+ids[1], nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel queued: %d %s", rec.Code, rec.Body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.startJobWorkers(ctx)
	// One worker takes the queue in order: when the burst's last job has
	// finished, so have the others.
	pollJob(t, h, ids[2], terminal)
	for _, id := range ids {
		if w := get(t, h, "/v1/jobs/"+id); w.Code != http.StatusOK {
			t.Errorf("GET %s after its burst finished: %d, want 200", id, w.Code)
		}
	}

	enqueue(3)
	if !s.jobs.drain(ctx) {
		t.Fatal("job pool did not drain")
	}
	s.jobs.mu.Lock()
	size := len(s.jobs.jobs)
	s.jobs.mu.Unlock()
	if size != 4 {
		t.Fatalf("registry holds %d jobs, want 4", size)
	}
	for _, id := range ids[:2] {
		if w := get(t, h, "/v1/jobs/"+id); w.Code != http.StatusNotFound {
			t.Errorf("GET evicted %s: %d, want 404", id, w.Code)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("DELETE evicted %s: %d, want 404", id, rec.Code)
		}
	}
	for _, id := range ids[2:] {
		if view := pollJob(t, h, id, terminal); view.Status != jobDone {
			t.Errorf("%s ended %s (%s), want done", id, view.Status, view.Error)
		}
	}
}
