package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/obs"
)

// Job states.
const (
	jobQueued   = "queued"
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// job is one queued analysis. Status transitions are guarded by mu:
// queued -> running -> done|failed, or queued|running -> canceled.
type job struct {
	id  string
	req analysis.Request
	// seq is the job's creation ordinal — the coordinate axis chaos
	// injection addresses jobs by, so "the 3rd job" faults identically in
	// every run of a seed regardless of worker interleaving.
	seq int

	mu       sync.Mutex
	status   string
	result   json.RawMessage // the canonical /v1/analyze body
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // set by claim; also used by DELETE
	canceled bool               // user asked for cancellation
}

func (j *job) snapshot() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		Status:    j.status,
		Benchmark: j.req.Benchmark,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
		Result:    j.result,
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// jobView is the API representation of a job.
type jobView struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Benchmark string          `json:"benchmark"`
	Created   string          `json:"created"`
	Started   string          `json:"started,omitempty"`
	Finished  string          `json:"finished,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// jobManager owns the bounded job queue, the worker pool draining it and
// the job registry. The registry keeps every queued and running job and at
// most retain finished ones, evicting the oldest finished first: an evicted
// id is unknown again.
type jobManager struct {
	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // ids of registered finished jobs, oldest first
	retain   int
	nextID   uint64
	queue    chan *job
	closed   bool

	wg      sync.WaitGroup
	runJob  func(ctx context.Context, j *job)
	timeout time.Duration

	inflight   *obs.Gauge
	queueDepth *obs.Gauge
	jobsTotal  *obs.CounterVec
}

func newJobManager(queueDepth, retain int, timeout time.Duration, inflight, depth *obs.Gauge, total *obs.CounterVec) *jobManager {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &jobManager{
		jobs:       map[string]*job{},
		retain:     retain,
		queue:      make(chan *job, queueDepth),
		timeout:    timeout,
		inflight:   inflight,
		queueDepth: depth,
		jobsTotal:  total,
	}
}

// start launches the worker pool. ctx is the hard-cancellation context:
// when it ends, running jobs are abandoned mid-pipeline.
func (m *jobManager) start(ctx context.Context, workers int, run func(ctx context.Context, j *job)) {
	m.runJob = run
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker(ctx)
	}
}

func (m *jobManager) worker(ctx context.Context) {
	defer m.wg.Done()
	for j := range m.queue {
		m.queueDepth.Dec()
		jctx, cancel, ok := j.claim(ctx, m.timeout)
		if !ok {
			m.retire(j) // canceled while queued
			continue
		}
		m.inflight.Inc()
		m.runJob(jctx, j)
		cancel()
		m.inflight.Dec()
		m.jobsTotal.With(j.currentStatus()).Inc()
		m.retire(j)
	}
}

// retire records that a worker is done with j, which has finished, and
// evicts the oldest finished jobs past the retention bound.
func (m *jobManager) retire(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, j.id)
	for len(m.finished) > m.retain {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// claim transitions a queued job to running, refusing if it was canceled,
// and returns the context the job runs under: ctx, bounded by timeout when
// positive. The cancel func is installed in the same critical section that
// marks the job running, so a DELETE that finds the job running always has
// a context to cancel.
func (j *job) claim(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != jobQueued {
		return nil, nil, false
	}
	j.status = jobRunning
	j.started = time.Now()
	var jctx context.Context
	if timeout > 0 {
		jctx, j.cancel = context.WithTimeout(ctx, timeout)
	} else {
		jctx, j.cancel = context.WithCancel(ctx)
	}
	return jctx, j.cancel, true
}

func (j *job) currentStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// enqueue registers a job and places it on the queue. It fails when the
// queue is full (callers map this to 503) or the manager is shutting down.
func (m *jobManager) enqueue(req analysis.Request) (*job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("server shutting down")
	}
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%d", m.nextID),
		req:     req,
		seq:     int(m.nextID) - 1,
		status:  jobQueued,
		created: time.Now(),
	}
	m.jobs[j.id] = j
	m.mu.Unlock()

	select {
	case m.queue <- j:
		m.queueDepth.Inc()
		return j, nil
	default:
		m.mu.Lock()
		delete(m.jobs, j.id)
		m.mu.Unlock()
		return nil, errQueueFull
	}
}

var errQueueFull = fmt.Errorf("job queue full")

// get looks a job up by id.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// cancelJob cancels a queued or running job. Canceling a finished job is a
// no-op reported to the caller.
func (m *jobManager) cancelJob(id string) (jobView, bool, error) {
	j, ok := m.get(id)
	if !ok {
		return jobView{}, false, nil
	}
	j.mu.Lock()
	switch j.status {
	case jobQueued:
		j.status = jobCanceled
		j.canceled = true
		j.finished = time.Now()
		m.jobsTotal.With(jobCanceled).Inc()
	case jobRunning:
		j.canceled = true
		j.cancel()
	default:
		j.mu.Unlock()
		return j.snapshot(), true, fmt.Errorf("job %s already %s", id, j.currentStatus())
	}
	j.mu.Unlock()
	return j.snapshot(), true, nil
}

// finish records a job outcome.
func (j *job) finish(result []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = jobDone
		j.result = result
	case j.canceled:
		j.status = jobCanceled
		j.errMsg = err.Error()
	default:
		j.status = jobFailed
		j.errMsg = err.Error()
	}
}

// drain stops intake and waits for queued + running jobs to finish, up to
// ctx's deadline. It reports whether the pool drained fully.
func (m *jobManager) drain(ctx context.Context) bool {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}
