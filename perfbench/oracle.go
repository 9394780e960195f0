package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"torusnet/internal/cliutil"
	"torusnet/internal/load"
	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// answer is the part of one /v1/analyze response the oracle needs, kept
// compact so that a long run's answers do not dominate the heap.
type answer struct {
	idx    int // the request's index in the workload's input space
	node   int // the cluster node that answered (0 on one server)
	eMax   float64
	total  float64
	lower  float64
	engine string
	exact  bool
	cached bool
	degr   bool
}

func newAnswer(idx, node int, r *service.AnalyzeResponse) answer {
	return answer{
		idx: idx, node: node,
		eMax: r.EMax, total: r.TotalLoad, lower: r.BestLowerBound,
		engine: r.Engine, exact: r.Exact, cached: r.Cached, degr: r.Degraded,
	}
}

// sameAs reports whether b repeats a bit for bit (cached flag aside).
func (a answer) sameAs(b answer) bool {
	return a.engine != "" && a.engine == b.engine && a.exact == b.exact && a.degr == b.degr &&
		math.Float64bits(a.eMax) == math.Float64bits(b.eMax) &&
		math.Float64bits(a.total) == math.Float64bits(b.total) &&
		math.Float64bits(a.lower) == math.Float64bits(b.lower)
}

// relTol absorbs float summation order in engine totals; single-path
// routings produce integers and match exactly.
const relTol = 1e-9

// checkAnswer verifies one answer to req against the paper's invariants:
//
//   - an analytic answer equals the Theorem 2 closed form ODRLinearMax(k,d)
//     exactly;
//   - a computed answer's total load equals the sum of Lee distances over
//     all ordered processor pairs (every routing served here is minimal),
//     and its E_max is at least the best lower bound;
//   - no answer is a degraded Monte Carlo estimate.
//
// expected returns that sum, load.ExpectedTotal, for req.
func checkAnswer(req service.AnalyzeRequest, a answer, expected func() (float64, error)) error {
	switch {
	case a.degr:
		return fmt.Errorf("%s: degraded answer", describe(req))
	case a.engine == load.EngineAnalytic:
		if want := load.ODRLinearMax(req.K, req.D); a.eMax != want || !a.exact {
			return fmt.Errorf("%s: analytic e_max %v (exact %t), want ODRLinearMax = %v", describe(req), a.eMax, a.exact, want)
		}
		return nil
	case a.engine != load.EngineGeneric && a.engine != load.EngineSymmetry:
		return fmt.Errorf("%s: unexpected engine %q", describe(req), a.engine)
	}
	want, err := expected()
	if err != nil {
		return fmt.Errorf("%s: %w", describe(req), err)
	}
	if math.Abs(a.total-want) > relTol*math.Max(1, want) {
		return fmt.Errorf("%s: total_load %v, want Σ Lee distance %v", describe(req), a.total, want)
	}
	if a.eMax < a.lower-relTol*math.Max(1, a.lower) {
		return fmt.Errorf("%s: e_max %v below its best lower bound %v", describe(req), a.eMax, a.lower)
	}
	return nil
}

func describe(req service.AnalyzeRequest) string {
	return fmt.Sprintf("T^%d_%d %s %s", req.D, req.K, req.Placement, req.Routing)
}

// expectedTotal is the sum of Lee distances over all ordered processor
// pairs of a canonical request's placement: the total load every minimal
// routing must carry. It is the quantity load.ExpectedTotal sums pair by
// pair, computed here per dimension instead — Lee distance is the sum of
// the ring distances of the coordinates, so the total is
// Σ_dim Σ_{a,b} n_dim(a)·n_dim(b)·ring(a,b), where n_dim(a) counts the
// processors with coordinate a in that dimension. That is O(|P|·d + d·k²)
// rather than O(|P|²), and independent of the program's own helper.
func expectedTotal(canon service.AnalyzeRequest) (float64, error) {
	spec, err := cliutil.ParsePlacement(canon.Placement)
	if err != nil {
		return 0, err
	}
	t := torus.New(canon.K, canon.D)
	p, err := spec.Build(t)
	if err != nil {
		return 0, err
	}
	k, d := t.K(), t.D()
	counts := make([][]int, d)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	coords := make([]int, d)
	for _, u := range p.Nodes() {
		t.CoordsInto(u, coords)
		for i, c := range coords {
			counts[i][c]++
		}
	}
	total := 0
	for _, n := range counts {
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				ring := a - b
				if ring < 0 {
					ring = -ring
				}
				total += n[a] * n[b] * min(ring, k-ring)
			}
		}
	}
	return float64(total), nil
}

// verifyAnswers checks every answer, on workers goroutines, against the
// request request(idx) that produced it. Each distinct request is
// canonicalized and its Lee-distance sum computed once. With sameKey set,
// every computed answer for one canonical key must also carry a
// bit-identical e_max (repeat reads of a cached or replicated answer;
// analytic answers are already held to the closed form). It returns one
// error per failed answer.
func verifyAnswers(ctx context.Context, answers [][]answer, request func(idx int) service.AnalyzeRequest, sameKey bool, workers int) []error {
	byIdx := make(map[int][]answer)
	for _, as := range answers {
		for _, a := range as {
			byIdx[a.idx] = append(byIdx[a.idx], a)
		}
	}
	idxs := make([]int, 0, len(byIdx))
	for idx := range byIdx {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	keys := make([]string, len(idxs)) // canonical cache key per idx, "" if none
	errs := make([][]error, len(idxs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(idxs) && ctx.Err() == nil; i += workers {
				req := request(idxs[i])
				canon := req
				canonErr := canon.Canonicalize(service.DefaultMaxNodes)
				if canonErr == nil {
					keys[i] = canon.CacheKey()
				}
				var total float64
				var totalErr error
				summed := false
				expected := func() (float64, error) {
					if canonErr != nil {
						return 0, canonErr
					}
					if !summed {
						total, totalErr = expectedTotal(canon)
						summed = true
					}
					return total, totalErr
				}
				for _, a := range byIdx[idxs[i]] {
					if err := checkAnswer(req, a, expected); err != nil {
						errs[i] = append(errs[i], err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var out []error
	first := make(map[string]float64)
	for i, idx := range idxs {
		out = append(out, errs[i]...)
		if !sameKey || keys[i] == "" || len(errs[i]) > 0 {
			continue
		}
		for _, a := range byIdx[idx] {
			if a.engine == load.EngineAnalytic {
				continue
			}
			if e, ok := first[keys[i]]; !ok {
				first[keys[i]] = a.eMax
			} else if math.Float64bits(e) != math.Float64bits(a.eMax) {
				out = append(out, fmt.Errorf("%s: repeat read e_max %v differs from first read %v",
					describe(request(idx)), a.eMax, e))
			}
		}
	}
	if ctx.Err() != nil {
		out = append(out, ctx.Err())
	}
	return out
}
