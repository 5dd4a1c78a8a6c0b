package server

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"github.com/perfmetrics/eventlens/internal/obs"
)

// flightCache is an LRU cache with singleflight semantics. It backs the
// result cache (canonical response bytes of every cached endpoint), the
// analysis cache those endpoints' computes share, and the measurement-set
// cache that batches collection (it holds each set's noise profile, not the
// set). Every producer is
// deterministic — the same canonical key always produces the same value —
// so cache hits are exact and concurrent identical requests can safely share
// one execution.
type flightCache[V any] struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight[V]

	hits   *obs.Counter // served from the cache or from another caller's flight
	misses *obs.Counter // flights led: each runs fn once
}

type cacheEntry[V any] struct {
	key string
	val V
}

// flight is one in-progress execution that concurrent identical requests
// wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlightCache[V any](max int, hits, misses *obs.Counter) *flightCache[V] {
	return &flightCache[V]{
		max:     max,
		ll:      list.New(),
		items:   map[string]*list.Element{},
		flights: map[string]*flight[V]{},
		hits:    hits,
		misses:  misses,
	}
}

// do returns the cached value for key, or runs fn once to produce it.
// Concurrent calls with the same key wait for the first caller's fn (their
// own context still applies while waiting). Joining a flight that succeeds
// counts as a hit — the work ran once for many requests. Errors are not
// cached; the next request retries. A leader that failed only because its
// own context ended says nothing about the key, so a joiner whose context is
// still live leads a fresh flight instead of inheriting that cancellation.
func (c *flightCache[V]) do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			val := el.Value.(*cacheEntry[V]).val
			c.mu.Unlock()
			c.hits.Inc()
			return val, nil
		}
		call, ok := c.flights[key]
		if !ok {
			call = &flight[V]{done: make(chan struct{})}
			c.flights[key] = call
			c.mu.Unlock()
			return c.lead(key, call, fn)
		}
		c.mu.Unlock()
		select {
		case <-call.done:
			if call.err == nil {
				c.hits.Inc()
				return call.val, nil
			}
			if !canceled(call.err) || ctx.Err() != nil {
				return zero, call.err
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// lead runs fn for a flight this caller registered, publishes a successful
// value, and releases the flight's joiners.
func (c *flightCache[V]) lead(key string, call *flight[V], fn func() (V, error)) (V, error) {
	c.misses.Inc()
	call.val, call.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if call.err == nil {
		c.insert(key, call.val)
	}
	c.mu.Unlock()
	close(call.done)
	return call.val, call.err
}

// canceled reports whether err is a context ending rather than a result.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insert adds a value and evicts from the LRU tail past capacity. Caller
// holds c.mu.
func (c *flightCache[V]) insert(key string, val V) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry[V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry[V]).key)
	}
}
