package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/optimize"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// search is the /v1/optimize workload: one client submits placement-search
// jobs back to back and polls each to its terminal state.
type search struct {
	seed int64
	n    int // jobs submitted so far
	jobs []jobRecord
}

// jobRecord is one finished job as the client saw it.
type jobRecord struct {
	idx    int
	req    service.OptimizeRequest
	lat    time.Duration // submit to terminal state, client-observed
	state  string
	errMsg string
	result *service.OptimizeResponse
	snapID string
}

// pollInterval is how often the client polls a running job. Jobs take a
// few hundred milliseconds, so the poll adds well under 1% to a job's
// observed time.
const pollInterval = time.Millisecond

// annealSteps sizes the anneal job to about two thirds of a bnb job.
const annealSteps = 300

// bnbEMax is the proven optimum of 8 processors on T²₈ under ODR, below
// the linear placement's k/2 = 4 (optimize tests pin the same value).
const bnbEMax = 3

func newSearch(seed int64) *search { return &search{seed: seed} }

func (s *search) clients(int) int { return 1 }

// job is job idx. Every third job is a seeded anneal of 64 processors on
// T³₈ under ODR; the others are branch-and-bound of 8 processors on T²₈
// under ODR, a fixed amount of work (169,946 nodes visited) that proves
// E_max = 3. Two bnb per anneal put the median inside the bnb cluster.
func (s *search) job(idx int) service.OptimizeRequest {
	if idx%3 == 2 {
		return service.OptimizeRequest{K: 8, D: 3, Routing: "odr", Strategy: optimize.StrategyAnneal,
			Steps: annealSteps, Seed: int64(mix(s.seed, idx, 1) >> 1)}
	}
	return service.OptimizeRequest{K: 8, D: 2, Routing: "odr", Strategy: optimize.StrategyBranchBound}
}

func (s *search) setup(ctx context.Context, tracer *obs.Tracer) (*target, error) {
	return bootServer(ctx, serviceConfig(tracer))
}

func (s *search) op(ctx context.Context, t *target, _ int) (time.Duration, error) {
	idx := s.n
	s.n++
	req := s.job(idx)
	cl := t.clients[0]
	t0 := time.Now()
	acc, err := cl.Optimize(ctx, req)
	if err != nil {
		return time.Since(t0), fmt.Errorf("job %d submit: %w", idx, err)
	}
	snap, err := cl.WaitJob(ctx, acc.ID, pollInterval)
	lat := time.Since(t0)
	if err != nil {
		return lat, fmt.Errorf("job %d poll: %w", idx, err)
	}
	s.jobs = append(s.jobs, jobRecord{idx: idx, req: req, lat: lat, state: snap.State,
		errMsg: snap.Error, result: snap.Result, snapID: snap.ID})
	return lat, nil
}

// verify checks every finished job: bnb proves E_max = 3; an anneal's
// returned nodes re-evaluate to its reported E_max, which is at least its
// reported lower bound.
func (s *search) verify(ctx context.Context) []error {
	var errs []error
	for _, j := range s.jobs {
		if err := checkJob(ctx, j); err != nil {
			errs = append(errs, fmt.Errorf("job %d (%s): %w", j.idx, j.req.Strategy, err))
		}
	}
	return errs
}

func checkJob(ctx context.Context, j jobRecord) error {
	if j.state != service.JobStateDone || j.result == nil {
		return fmt.Errorf("state %q, error %q", j.state, j.errMsg)
	}
	r := j.result
	switch j.req.Strategy {
	case optimize.StrategyBranchBound:
		if !r.Proven || r.EMax != bnbEMax {
			return fmt.Errorf("bnb on T^2_8 returned e_max %v (proven %t), want proven %d", r.EMax, r.Proven, bnbEMax)
		}
		return nil
	case optimize.StrategyAnneal:
		t := torus.New(r.K, r.D)
		nodes := make([]torus.Node, len(r.Nodes))
		for i, n := range r.Nodes {
			nodes[i] = torus.Node(n)
		}
		p := placement.New(t, nodes, "anneal")
		if p.Size() != r.Size {
			return fmt.Errorf("returned %d distinct nodes, want %d", p.Size(), r.Size)
		}
		got := load.ComputeCtx(ctx, p, routing.ODR{}, load.Options{Workers: 1}).Max
		if math.Float64bits(got) != math.Float64bits(r.EMax) {
			return fmt.Errorf("returned nodes re-evaluate to e_max %v, job reported %v", got, r.EMax)
		}
		if r.EMax < r.LowerBound {
			return fmt.Errorf("e_max %v below its lower bound %v", r.EMax, r.LowerBound)
		}
		return nil
	}
	return fmt.Errorf("unexpected strategy %q", j.req.Strategy)
}

func (s *search) setupOps() int { return 0 }

// layers reports the optimize metrics from the finished jobs — rates over
// the server-reported elapsed time, and the client-observed overhead
// beyond it — and probes the layers a job's answer passes: the poll
// handler, OptimizeRequest canonicalization, the response encoding, and
// the load, bisect and core functions on the returned placements.
func (s *search) layers(ctx context.Context, lc *layerContext) error {
	var bnbRate, bnbVisited, bnbPruned, annealRate, overhead []float64
	for _, j := range s.jobs {
		r := j.result
		if r == nil || r.ElapsedMS <= 0 {
			continue
		}
		overhead = append(overhead, ms(j.lat)-r.ElapsedMS)
		switch r.Strategy {
		case optimize.StrategyBranchBound:
			bnbRate = append(bnbRate, float64(r.Visited)/(r.ElapsedMS/1000))
			bnbVisited = append(bnbVisited, float64(r.Visited))
			bnbPruned = append(bnbPruned, share(float64(r.Pruned), float64(r.Visited)))
		case optimize.StrategyAnneal:
			annealRate = append(annealRate, float64(r.Steps)/(r.ElapsedMS/1000))
		}
	}
	lc.rep.set("optimize.bnb_nodes_per_s", median(bnbRate), "1/s")
	lc.rep.set("optimize.bnb_visited", median(bnbVisited), "count")
	lc.rep.set("optimize.bnb_pruned_share", median(bnbPruned), "ratio")
	lc.rep.set("optimize.anneal_steps_per_s", median(annealRate), "1/s")
	lc.rep.set("optimize.job_overhead_ms", median(overhead), "ms")
	lc.rep.notes["optimize.job_overhead_ms"] = fmt.Sprintf("median over %d jobs", len(overhead))

	if len(s.jobs) == 0 {
		return errNoOps
	}
	// Job ids are per server: only the last job is sure to live on lc.t.
	poll := "/v1/jobs/" + s.jobs[len(s.jobs)-1].snapID
	p := &prober{tracer: lc.tracer}
	deadline := time.Now().Add(lc.budget)
	for n := 0; n < minProbes || time.Now().Before(deadline); n++ {
		j := s.jobs[n%len(s.jobs)]
		p.input = fmt.Sprintf("job %d %s T^%d_%d", j.idx, j.req.Strategy, j.req.D, j.req.K)
		if _, err := p.probeHandler(ctx, lc.t.servers[0].Handler(), http.MethodGet, poll, nil); err != nil {
			return err
		}
		req := j.req
		var err error
		p.call(ctx, spanCanon, func(context.Context, *obs.Span) { err = req.Canonicalize(service.DefaultMaxNodes) })
		if err != nil {
			return err
		}
		if j.result == nil {
			continue
		}
		if err := p.probeEncode(ctx, j.result); err != nil {
			return err
		}
		t := torus.New(j.result.K, j.result.D)
		coords := make([][]int, len(j.result.Nodes))
		for i, u := range j.result.Nodes {
			coords[i] = t.Coords(torus.Node(u))
		}
		spec := placement.Explicit{Label: "job result", Coords: coords}
		if err := p.probeCompute(ctx, j.result.K, j.result.D, spec, routing.ODR{}); err != nil {
			return err
		}
	}
	lc.setProbeMetrics()
	return nil
}
