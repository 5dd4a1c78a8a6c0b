package server

import (
	"context"
	"errors"
	"github.com/perfmetrics/eventlens/internal/analysis"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/obs"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// parkCtx is a live context that signals the first time a caller waits on
// it: for a flight joiner, the moment it has joined.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// stallDriver is a one-point benchmark driver whose first GroundTruth call
// signals leading, then blocks until release is done and fails with its
// error; every later call succeeds.
type stallDriver struct {
	calls   atomic.Int32
	leading chan struct{}
	release context.Context
}

func (d *stallDriver) PointNames() []string { return []string{"p0"} }
func (d *stallDriver) Basis() (*core.Basis, error) {
	return nil, errors.New("stall driver has no basis")
}

func (d *stallDriver) GroundTruth(cat.RunConfig) ([][]machine.Stats, error) {
	if d.calls.Add(1) == 1 {
		close(d.leading)
		<-d.release.Done()
		return nil, d.release.Err()
	}
	return [][]machine.Stats{{machine.Stats{}}}, nil
}

// TestFlightJoinerOutlivesLeaderCancel: a request that joined a flight
// whose leader's client went away must not inherit that cancellation. Its
// own context is live, so it leads a fresh flight and gets its result
// instead of failing (which the daemon would serve as a 503). Exercised on
// the measurement-set cache; the result cache is the same type.
func TestFlightJoinerOutlivesLeaderCancel(t *testing.T) {
	s := newTestServer(t, Config{})
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stall := &stallDriver{leading: make(chan struct{}), release: leaderCtx}
	bench := suite.Benchmark{
		Name:     "stub",
		Class:    "cpu",
		Platform: "spr-sim",
		Driver:   stall,
	}
	p, err := s.platforms.Platform(bench.Platform)
	if err != nil {
		t.Fatal(err)
	}
	id := analysis.ID{Bench: bench, Platform: p, Run: cat.RunConfig{Reps: 1, Threads: 1}}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.noiseProfile(leaderCtx, id)
		leaderErr <- err
	}()
	<-stall.leading
	joiner := &parkCtx{Context: context.Background(), parked: make(chan struct{})}
	type outcome struct {
		prof *core.NoiseProfile
		err  error
	}
	joined := make(chan outcome, 1)
	go func() {
		prof, err := s.noiseProfile(joiner, id)
		joined <- outcome{prof, err}
	}()
	<-joiner.parked
	cancel()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	got := <-joined
	if got.err != nil || got.prof == nil || got.prof.Benchmark != "stub" || len(got.prof.Order) == 0 {
		t.Fatalf("joiner: profile %p, err %v; want its own flight's profile", got.prof, got.err)
	}
	if n := stall.calls.Load(); n != 2 {
		t.Fatalf("collections = %d, want 2 (the cancelled leader's and the joiner's own)", n)
	}
}

// TestFlightLeaderPanicSettlesKey: a leader whose compute panics must still
// settle its flight. A joiner waiting on it gets an error, and the next
// caller of the key leads a fresh flight instead of waiting on a dead one.
func TestFlightLeaderPanicSettlesKey(t *testing.T) {
	c := newFlightCache[int](4, new(obs.Counter), new(obs.Counter))
	leading, release := make(chan struct{}), make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _ = c.do(context.Background(), "k", func() (int, error) {
			close(leading)
			<-release
			panic("compute exploded")
		})
	}()
	<-leading
	joiner := &parkCtx{Context: context.Background(), parked: make(chan struct{})}
	joined := make(chan error, 1)
	go func() {
		_, err := c.do(joiner, "k", func() (int, error) { return 0, errors.New("a joiner led") })
		joined <- err
	}()
	<-joiner.parked
	close(release)
	if r := <-leaderPanic; r == nil {
		t.Fatal("the leader's panic did not reach its caller")
	}
	select {
	case err := <-joined:
		if !errors.Is(err, errLeaderPanicked) {
			t.Fatalf("joiner: err = %v, want errLeaderPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner still waits on the panicked flight")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, err := c.do(ctx, "k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("next caller: %d, %v; want a fresh flight's 7", v, err)
	}
}
