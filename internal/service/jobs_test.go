package service

// Lifecycle tests for the async search job API: submit → 202 → poll →
// result, cancellation mid-run, TTL expiry, capacity backpressure, and the
// acceptance pin that /v1/optimize reproduces the exhaustive optimum on
// T²₈. Every test runs under -race and checks for goroutine leaks.

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"torusnet/internal/optimize"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func TestJobLifecycleCompletes(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()
	s, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	ctx := context.Background()

	acc, err := c.Optimize(ctx, OptimizeRequest{K: 6, D: 2, Routing: "odr", Strategy: "leesphere"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if acc.ID == "" || acc.State != JobStateRunning || acc.Poll != "/v1/jobs/"+acc.ID {
		t.Fatalf("bad 202 body: %+v", acc)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	snap, err := c.WaitJob(wctx, acc.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if snap.State != JobStateDone || snap.Result == nil {
		t.Fatalf("terminal snapshot: %+v", snap)
	}
	res := snap.Result
	if res.Strategy != optimize.StrategyLeeSphere || res.Size != 6 || len(res.Nodes) != 6 {
		t.Errorf("result provenance: %+v", res)
	}
	if res.EMax <= 0 || res.LowerBound <= 0 || res.Gap != res.EMax-res.LowerBound {
		t.Errorf("result bounds: e_max=%v lb=%v gap=%v", res.EMax, res.LowerBound, res.Gap)
	}
	// Poll-after-complete: the record stays pollable and stable.
	again, err := c.Job(ctx, acc.ID)
	if err != nil {
		t.Fatalf("poll after complete: %v", err)
	}
	if again.State != JobStateDone || again.Result == nil || again.Result.EMax != res.EMax {
		t.Errorf("post-completion poll drifted: %+v", again)
	}
	// The listing shows it too.
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != acc.ID {
		t.Errorf("job listing: %v err=%v", jobs, err)
	}
	if got := s.metrics.get(mJobsDone); got != 1 {
		t.Errorf("jobs_done = %d, want 1", got)
	}
}

func TestJobCancelMidRun(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()
	_, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	ctx := context.Background()

	// A long annealing schedule on T²₈: hundreds of thousands of energy
	// evaluations, far longer than the cancel round-trip.
	acc, err := c.Optimize(ctx, OptimizeRequest{K: 8, D: 2, Routing: "odr", Strategy: "anneal", Steps: 300000, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Let it actually start searching before cancelling.
	time.Sleep(20 * time.Millisecond)
	if _, err := c.CancelJob(ctx, acc.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	snap, err := c.WaitJob(wctx, acc.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if snap.State != JobStateCancelled {
		t.Fatalf("state = %q, want cancelled", snap.State)
	}
	// Cancelled searches surface their best-so-far placement.
	if snap.Result == nil || len(snap.Result.Nodes) == 0 || snap.Result.Proven {
		t.Errorf("cancelled result: %+v", snap.Result)
	}
	if snap.Result.Steps >= 300000 {
		t.Errorf("executed %d steps, want an early stop", snap.Result.Steps)
	}
}

// TestJobAnnealFullTorus pins the regression where an anneal whose size
// fills the torus had no free node to move to: its proposal loop spun
// forever, past the job deadline, and wedged the server's close. The job
// must finish with the only placement after 0 steps, and close must return.
func TestJobAnnealFullTorus(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()
	_, c, stop := newTestServer(t, Config{Workers: 2, JobTimeout: 2 * time.Second})
	ctx := context.Background()

	acc, err := c.Optimize(ctx, OptimizeRequest{K: 3, D: 2, Size: 9, Routing: "odr", Strategy: "anneal"})
	if err != nil {
		stop()
		t.Fatalf("submit: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	snap, err := c.WaitJob(wctx, acc.ID, 5*time.Millisecond)
	if err != nil {
		t.Errorf("wait: %v", err)
	} else if snap.State != JobStateDone || snap.Result == nil {
		t.Errorf("terminal snapshot: %+v", snap)
	} else if len(snap.Result.Nodes) != 9 || snap.Result.Steps != 0 {
		t.Errorf("full-torus anneal: %d nodes after %d steps, want 9 after 0", len(snap.Result.Nodes), snap.Result.Steps)
	}
	closed := make(chan struct{})
	go func() {
		stop()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server close did not return")
	}
}

func TestJobTTLExpiry(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()
	s, c, stop := newTestServer(t, Config{Workers: 2, JobTTL: 30 * time.Millisecond})
	defer stop()
	ctx := context.Background()

	acc, err := c.Optimize(ctx, OptimizeRequest{K: 4, D: 2, Routing: "odr", Strategy: "leesphere"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := c.WaitJob(wctx, acc.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// The janitor must expire the finished record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Job(ctx, acc.ID)
		if isAPIStatus(err, http.StatusNotFound) {
			break
		}
		if err != nil {
			t.Fatalf("poll during expiry wait: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.metrics.get(mJobsExpired); got != 1 {
		t.Errorf("jobs_expired = %d, want 1", got)
	}
}

func TestJobCapacityBackpressure(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()
	s, c, stop := newTestServer(t, Config{Workers: 2, MaxJobs: 1})
	defer stop()
	ctx := context.Background()

	// Fill the single slot with a long search.
	acc, err := c.Optimize(ctx, OptimizeRequest{K: 8, D: 2, Routing: "odr", Strategy: "anneal", Steps: 300000, Seed: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	_, err = c.Optimize(ctx, OptimizeRequest{K: 6, D: 2, Routing: "odr", Strategy: "leesphere"})
	if !isAPIStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("submit past capacity: err = %v, want 429", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter < time.Second {
		t.Errorf("429 Retry-After: %v, want >= 1s", err)
	}
	if got := s.metrics.get(mJobsRejected); got != 1 {
		t.Errorf("jobs_rejected = %d, want 1", got)
	}
	// Free the slot; capacity comes back.
	if _, err := c.CancelJob(ctx, acc.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := c.WaitJob(wctx, acc.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("wait for cancel: %v", err)
	}
	acc2, err := c.Optimize(ctx, OptimizeRequest{K: 6, D: 2, Routing: "odr", Strategy: "leesphere"})
	if err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
	if snap, err := c.WaitJob(wctx, acc2.ID, 5*time.Millisecond); err != nil || snap.State != JobStateDone {
		t.Errorf("job after capacity recovery: snap=%+v err=%v", snap, err)
	}
}

func TestOptimizeRequestValidation(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()
	_, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	ctx := context.Background()
	for _, req := range []OptimizeRequest{
		{K: 0, D: 2, Routing: "odr"},
		{K: 6, D: 2, Routing: "nope"},
		{K: 6, D: 2, Routing: "odr", Strategy: "quantum"},
		{K: 6, D: 2, Routing: "odr", Size: 1},
		{K: 6, D: 2, Routing: "odr", Size: 37},
		{K: 6, D: 2, Routing: "odr", Steps: -1},
	} {
		if _, err := c.Optimize(ctx, req); !isAPIStatus(err, http.StatusBadRequest) {
			t.Errorf("request %+v: err = %v, want 400", req, err)
		}
	}
	if _, err := c.Job(ctx, "no-such-job"); !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("unknown job poll: err = %v, want 404", err)
	}
	if _, err := c.CancelJob(ctx, "no-such-job"); !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("unknown job cancel: err = %v, want 404", err)
	}
}

// TestOptimizeProvesT28Optimum is the acceptance pin: /v1/optimize on T²₈
// with |P| = 8 under ODR must return the placement the exhaustive search
// proves optimal — E_max = 3, strictly better than the linear
// construction's k/2 = 4 — and match a local BranchAndBound run.
func TestOptimizeProvesT28Optimum(t *testing.T) {
	leaks := checkGoroutineLeaks(t)
	defer leaks()
	_, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	ctx := context.Background()

	acc, err := c.Optimize(ctx, OptimizeRequest{K: 8, D: 2, Size: 8, Routing: "ODR", Strategy: "bnb"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	snap, err := c.WaitJob(wctx, acc.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if snap.State != JobStateDone || snap.Result == nil {
		t.Fatalf("terminal snapshot: %+v", snap)
	}
	res := snap.Result
	if !res.Proven || res.EMax != 3 {
		t.Errorf("served optimum e_max=%v proven=%v, want a proven 3", res.EMax, res.Proven)
	}
	local, err := optimize.BranchAndBound(ctx, torus.New(8, 2), routing.ODR{}, optimize.Config{Size: 8})
	if err != nil {
		t.Fatalf("local branch-and-bound: %v", err)
	}
	if !local.Proven || local.BestEMax != res.EMax {
		t.Errorf("service says %v, local exhaustive search says %v (proven=%v)", res.EMax, local.BestEMax, local.Proven)
	}
	// Auto strategy on a 64-node torus resolves to branch-and-bound too.
	acc2, err := c.Optimize(ctx, OptimizeRequest{K: 8, D: 2, Size: 8, Routing: "ODR"})
	if err != nil {
		t.Fatalf("auto submit: %v", err)
	}
	snap2, err := c.WaitJob(wctx, acc2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("auto wait: %v", err)
	}
	if snap2.Result == nil || snap2.Result.Strategy != optimize.StrategyBranchBound || snap2.Result.EMax != 3 {
		t.Errorf("auto strategy result: %+v", snap2.Result)
	}
}
