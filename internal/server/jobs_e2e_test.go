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
