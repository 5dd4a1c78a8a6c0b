package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/matrix"
	"github.com/perfmetrics/eventlens/internal/store"
	"github.com/perfmetrics/eventlens/internal/suite"
	"github.com/perfmetrics/eventlens/internal/validate"
)

// span is one timed interval of a traced run. A span's layer is its name
// up to the first dot: http (the traced HTTP phase), server, store, cat,
// core, matrix or validate.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Request  int    `json:"request"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Rung     string `json:"rung,omitempty"`
	ServedBy string `json:"served_by,omitempty"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps a run's spans in memory; IDs are 1-based slice positions.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// addPhase records a root span per request of an HTTP phase, tagged with
// the rung that served it and the replica that produced it.
func (t *tracer) addPhase(p *phase) {
	offset := p.start.Sub(t.base)
	for _, r := range p.records {
		t.add(span{Request: r.idx, Name: "http.request", StartNS: int64(offset + r.start),
			EndNS: int64(offset + r.end), Rung: r.rung, ServedBy: r.servedBy})
	}
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	return t.add(span{Parent: parent, Request: req, Name: name, StartNS: t.now()})
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
}

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, for each span, its duration minus the union of its
// children's intervals clipped to it. Children are found by Parent ID, so
// spans must carry the IDs tracer.add assigned (position + 1).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans)+1)
	for i, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].StartNS, s.StartNS), min(spans[c].EndNS, s.EndNS)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.StartNS
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		self[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// lru is a least-recently-used map with a fixed capacity.
type lru struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(max int) *lru { return &lru{max: max, ll: list.New(), items: map[string]*list.Element{}} }

func (c *lru) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lru) put(key string, val any) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*lruEntry).key)
	}
}

// Server defaults the replay mirrors: the result-cache and measurement-set
// cache sizes of internal/server.
const (
	defaultCacheSize = 64
	setCacheSize     = 8
)

// replayer serves requests one at a time by calling the modules' public
// functions in the server's ladder order: key, result cache, store, then
// collection and the analysis stages, with a span around each call. Its
// outputs are checked against the HTTP bodies of the same requests.
type replayer struct {
	ctx   context.Context
	tr    *tracer // nil replays without spans
	reg   *machine.Registry
	cache *lru
	sets  *lru
	store *store.Store
	// bodies are the traced phase's responses by request body.
	bodies map[string][]byte

	mismatches []string
	roots      map[int]replayRoot // by request index
	analyses   int
	coreAllocs uint64
}

// replayRoot is one replayed request's root span.
type replayRoot struct {
	dur  time.Duration
	rung string
}

func newReplayer(ctx context.Context, w *workload, storeDir string, bodies map[string][]byte) (*replayer, error) {
	reg, err := machine.NewRegistry()
	if err != nil {
		return nil, err
	}
	size := w.cacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	r := &replayer{ctx: ctx, reg: reg, cache: newLRU(size), sets: newLRU(setCacheSize),
		bodies: bodies, roots: map[int]replayRoot{}}
	if storeDir != "" {
		if r.store, err = store.Open(storeDir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// open starts a span when tracing and returns its ID (0 when not) and the
// function that ends it.
func (r *replayer) open(name string, parent, req int) (int, func()) {
	if r.tr == nil {
		return 0, func() {}
	}
	id := r.tr.begin(name, parent, req)
	return id, func() { r.tr.end(id) }
}

// do runs f inside a span.
func (r *replayer) do(name string, parent, req int, f func() error) error {
	_, done := r.open(name, parent, req)
	defer done()
	return f()
}

func (r *replayer) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// serve replays request i.
func (r *replayer) serve(i int, req request) error {
	root := 0
	if r.tr != nil {
		root = r.tr.begin("server.request", 0, i)
	}
	rung, err := r.ladder(root, i, req)
	if r.tr != nil {
		r.tr.end(root)
		r.tr.mu.Lock()
		s := &r.tr.spans[root-1]
		s.Rung = rung
		r.roots[i] = replayRoot{dur: s.dur(), rung: rung}
		r.tr.mu.Unlock()
	}
	return err
}

func (r *replayer) ladder(root, i int, req request) (string, error) {
	var key string
	err := r.do("server.key."+req.endpoint(), root, i, func() (err error) {
		key, err = requestKey(r.reg, req)
		return err
	})
	if err != nil {
		return "", err
	}
	if _, ok := r.cache.get(key); ok {
		return srcHit, nil
	}
	if r.store != nil {
		err := r.do("store.get", root, i, func() error { _, err := r.store.Get(key); return err })
		if err == nil {
			r.cache.put(key, nil)
			return srcDisk, nil
		}
		if !errors.Is(err, store.ErrNotExist) {
			return "", err
		}
	}
	switch req.endpoint() {
	case "validate":
		err = r.validate(root, i, req)
	case "matrix":
		err = r.matrix(root, i, req)
	default:
		err = r.analyze(root, i, req)
	}
	if err != nil {
		return "", err
	}
	r.cache.put(key, nil)
	if body := r.bodies[string(req.Body)]; r.store != nil && body != nil {
		if err := r.do("store.put", root, i, func() error { return r.store.Put(key, body) }); err != nil {
			return "", err
		}
	}
	return srcMiss, nil
}

// Ladder rungs, as the daemon names them in its cache header.
const (
	srcHit  = "hit"
	srcDisk = "disk"
	srcMiss = "miss"
)

// resolveAnalyze fills a request's defaults the way the daemon does.
func resolveAnalyze(ar *analyzeRequest) (suite.Benchmark, cat.RunConfig, core.Config, error) {
	b, err := suite.ByName(ar.Benchmark)
	if err != nil {
		return suite.Benchmark{}, cat.RunConfig{}, core.Config{}, err
	}
	run, cfg := b.DefaultRun, b.Config
	if ar.Run != nil {
		run = *ar.Run
	}
	if ar.Config != nil {
		cfg = *ar.Config
	}
	return b, run, cfg, nil
}

// requestKey builds a request's cache key in the daemon's format.
func requestKey(reg *machine.Registry, req request) (string, error) {
	switch req.endpoint() {
	case "validate":
		k, err := req.Validate.Key()
		return "validate|" + k, err
	case "matrix":
		k, err := req.Matrix.Key(reg)
		return "matrix|" + k, err
	}
	b, run, cfg, err := resolveAnalyze(req.Analyze)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|%s|%s", b.Name, run.String(), cfg.String()), nil
}

// analyze collects (unless the measurement-set cache holds the set) and
// runs the analysis stages, then checks the report against the HTTP body.
func (r *replayer) analyze(root, i int, req request) error {
	b, run, cfg, err := resolveAnalyze(req.Analyze)
	if err != nil {
		return err
	}
	mk := run.MeasurementKey(b.Name)
	var set *core.MeasurementSet
	if v, ok := r.sets.get(mk); ok {
		set = v.(*core.MeasurementSet)
	} else {
		if err := r.do("cat.collect."+b.Name, root, i, func() (err error) {
			set, err = b.Collect(r.ctx, run)
			return err
		}); err != nil {
			return err
		}
		r.sets.put(mk, set)
	}
	var report string
	a0 := readRuntime().allocs
	res, err := r.stages(root, i, b, set, cfg)
	if err != nil {
		return err
	}
	var defs []*core.MetricDefinition
	if err := r.do("core.define", root, i, func() (err error) {
		defs, err = res.DefineMetrics(b.Signatures)
		return err
	}); err != nil {
		return err
	}
	if err := r.do("core.report", root, i, func() error {
		report = core.FormatAnalysisReport(res, cfg.ProjectionTol, b.MetricTable, defs)
		return nil
	}); err != nil {
		return err
	}
	r.coreAllocs += readRuntime().allocs - a0
	r.analyses++
	if body, ok := r.bodies[string(req.Body)]; ok {
		var v struct {
			Report string `json:"report"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.Report != report {
			r.mismatch("replay of request %d (%s): report differs from the HTTP body", i, req.Body)
		}
	}
	return nil
}

// stages runs the analysis pipeline of core.Pipeline.AnalyzeContext one
// stage per span: basis and input checks, noise filter, projection, QRCP.
func (r *replayer) stages(root, i int, b suite.Benchmark, set *core.MeasurementSet, cfg core.Config) (*core.Result, error) {
	var basis *core.Basis
	if err := r.do("core.basis", root, i, func() (err error) {
		if err := set.Validate(); err != nil {
			return err
		}
		if basis, err = b.BasisFor(set); err != nil {
			return err
		}
		return basis.CheckFullRank()
	}); err != nil {
		return nil, err
	}
	var noise *core.NoiseReport
	if err := r.do("core.noise", root, i, func() error {
		noise = core.FilterNoiseWithWorkers(set, cfg.Tau, core.MaxRNMSE, cfg.Workers)
		return nil
	}); err != nil {
		return nil, err
	}
	var proj *core.ProjectionReport
	if err := r.do("core.project", root, i, func() (err error) {
		proj, err = core.BuildXWorkers(basis, noise.Kept, noise.KeptOrder, cfg.ProjectionTol, cfg.Workers)
		return err
	}); err != nil {
		return nil, err
	}
	if len(proj.Order) == 0 {
		return nil, fmt.Errorf("no events of %s representable in its basis", b.Name)
	}
	res := &core.Result{Noise: noise, Projection: proj, Unmeasured: set.Dropped}
	if err := r.do("core.qrcp", root, i, func() error {
		res.QR = core.SpecializedQRCP(proj.X, cfg.Alpha)
		return nil
	}); err != nil {
		return nil, err
	}
	if res.QR.Rank == 0 {
		return nil, fmt.Errorf("QRCP selected no events of %s", b.Name)
	}
	for _, idx := range res.QR.Selected() {
		res.SelectedEvents = append(res.SelectedEvents, proj.Order[idx])
	}
	res.Xhat = proj.X.ColSlice(res.QR.Selected())
	return res, nil
}

// validate runs the event-trust validation and checks its canonical
// envelope against the HTTP body byte for byte.
func (r *replayer) validate(root, i int, req request) error {
	var rep *validate.Report
	if err := r.do("validate.run."+req.Validate.Platform, root, i, func() (err error) {
		rep, err = validate.Run(r.ctx, *req.Validate)
		return err
	}); err != nil {
		return err
	}
	var env []byte
	if err := r.do("validate.encode", root, i, func() error {
		env = validate.NewEnvelope(rep).CanonicalJSON()
		return nil
	}); err != nil {
		return err
	}
	if body, ok := r.bodies[string(req.Body)]; ok && !bytes.Equal(body, env) {
		r.mismatch("replay of request %d (%s): envelope differs from the HTTP body", i, req.Body)
	}
	return nil
}

// matrix computes every (platform, benchmark) pair of a matrix request the
// way matrix.Run does, serially and with one collection worker, and checks
// the cells against the HTTP body.
func (r *replayer) matrix(root, i int, req request) error {
	mr := req.Matrix
	threshold := matrix.DefaultThreshold
	if mr.Threshold > 0 {
		threshold = mr.Threshold
	}
	var platforms []string
	for _, name := range mr.Platforms {
		canon, err := r.reg.Canonical(name)
		if err != nil {
			return err
		}
		platforms = append(platforms, canon)
	}
	sort.Strings(platforms)
	wanted := map[string]bool{}
	for _, b := range mr.Benchmarks {
		wanted[b] = true
	}
	cells := []matrix.Cell{}
	for _, platform := range platforms {
		p, err := r.reg.New(platform)
		if err != nil {
			return err
		}
		for _, b := range suite.All() {
			if !wanted[b.Name] || b.Class != p.Class {
				continue
			}
			id, done := r.open("matrix.pair."+b.Name, root, i)
			pc, err := r.pair(id, i, p, b, threshold)
			done()
			if err != nil {
				return err
			}
			cells = append(cells, pc...)
		}
	}
	if body, ok := r.bodies[string(req.Body)]; ok {
		var v struct {
			Cells []matrix.Cell `json:"cells"`
		}
		got, err1 := json.Marshal(cells)
		err2 := json.Unmarshal(body, &v)
		want, err3 := json.Marshal(v.Cells)
		if err := errors.Join(err1, err2, err3); err != nil || !bytes.Equal(got, want) {
			r.mismatch("replay of request %d (%s): matrix cells differ from the HTTP body", i, req.Body)
		}
	}
	return nil
}

// pair runs one matrix pair under its matrix.pair span, parent.
func (r *replayer) pair(parent, i int, p *machine.Platform, b suite.Benchmark, threshold float64) ([]matrix.Cell, error) {
	run := b.DefaultRun
	run.Workers = 1
	var set *core.MeasurementSet
	if err := r.do("cat.collect_serial."+b.Name, parent, i, func() (err error) {
		set, err = b.CollectOn(r.ctx, p, run)
		return err
	}); err != nil {
		return nil, err
	}
	a0 := readRuntime().allocs
	res, err := r.stages(parent, i, b, set, b.Config)
	if err != nil {
		return nil, err
	}
	var cells []matrix.Cell
	err = r.do("core.define", parent, i, func() error {
		for _, sig := range b.Signatures {
			def, err := core.DefineMetric(res.Xhat, res.SelectedEvents, sig)
			if err != nil {
				return err
			}
			cells = append(cells, matrix.Cell{
				Platform: p.Name, Benchmark: b.Name, Metric: sig.Name,
				BackwardError: def.BackwardError, Composable: def.Composable(threshold),
				Rank: len(res.SelectedEvents),
			})
		}
		return nil
	})
	r.coreAllocs += readRuntime().allocs - a0
	r.analyses++
	return cells, err
}
