package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"torusnet/internal/cluster/harness"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/service"
)

// routings are the four minimal routings the analyze workloads mix.
var routings = []string{"odr", "odr-multi", "udr", "udr-multi"}

// mix is a splitmix64 hash of (seed, idx, salt): a cheap deterministic
// source of per-request parameters, so that request idx of a seeded
// stream is the same no matter which client sends it or when.
func mix(seed int64, idx, salt int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9 + uint64(salt)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// pick returns a value in [lo, hi] from mix.
func pick(seed int64, idx, salt, lo, hi int) int {
	return lo + int(mix(seed, idx, salt)%uint64(hi-lo+1))
}

// analyzeLoad is the shape the three /v1/analyze workloads share: a seeded
// request space, a rule for which request each client sends next and to
// which node, and the answers collected for the oracle.
type analyzeLoad struct {
	request func(idx int) service.AnalyzeRequest
	next    func(c int) (idx, node int, reread bool)
	// fresh is the next input for the layer probes: a request the loop has
	// not sent (the working set on hits) and the node to send it to.
	fresh func() (idx, node int)
	// sameKey demands bit-identical e_max across every answer for one key.
	sameKey bool
	answers [][]answer // per client
	primed  int        // requests sent while priming
	// ref, when set, holds one primed answer per request index (hits).
	ref []answer
	// last is each client's latest first read (cluster re-reads follow it).
	last []answer
	// rereads records the cluster re-reads that matched their first read.
	rereads [][]rereadRec
	// computedAt reports which cluster node computed a canonical key; nil
	// on one server.
	computedAt func(key string) (node int, ok bool)
}

func newAnalyzeLoad(request func(int) service.AnalyzeRequest, next func(int) (int, int, bool), fresh func() (int, int), sameKey bool) analyzeLoad {
	n := runtime.NumCPU()
	return analyzeLoad{request: request, next: next, fresh: fresh, sameKey: sameKey,
		answers: make([][]answer, n), last: make([]answer, n), rereads: make([][]rereadRec, n)}
}

// rereadRec is a cluster re-read that repeated its first read bit for bit.
type rereadRec struct {
	idx    int
	node   int
	cached bool
}

func (a *analyzeLoad) clients(nproc int) int { return nproc }

func (a *analyzeLoad) setupOps() int { return a.primed }

// send runs request idx on node and records the answer under client c.
func (a *analyzeLoad) send(ctx context.Context, t *target, c, idx, node int, isReread bool) (time.Duration, error) {
	req := a.request(idx)
	t0 := time.Now()
	resp, err := t.clients[node].Analyze(ctx, req)
	lat := time.Since(t0)
	if err != nil {
		return lat, fmt.Errorf("%s on node %d: %w", describe(req), node, err)
	}
	ans := newAnswer(idx, node, resp)
	// A repeat read bit-identical to an answer the oracle will check (the
	// primed answer on hits, the key's first read on the cluster) is
	// checked here and kept small or not at all, so a long run of repeat
	// reads does not grow the heap it measures.
	switch {
	case a.ref != nil && a.ref[idx].sameAs(ans):
		return lat, nil
	case isReread && a.last[c].idx == idx && a.last[c].sameAs(ans):
		a.rereads[c] = append(a.rereads[c], rereadRec{idx: idx, node: node, cached: ans.cached})
		return lat, nil
	}
	a.answers[c] = append(a.answers[c], ans)
	if !isReread {
		a.last[c] = ans
	}
	return lat, nil
}

func (a *analyzeLoad) op(ctx context.Context, t *target, c int) (time.Duration, error) {
	idx, node, isReread := a.next(c)
	return a.send(ctx, t, c, idx, node, isReread)
}

func (a *analyzeLoad) verify(ctx context.Context) []error {
	return verifyAnswers(ctx, a.answers, a.request, a.sameKey, runtime.NumCPU())
}

// hits is the cache-read workload: a fixed working set of ~100 requests,
// primed during set-up and well under the 512-entry result cache.
type hits struct {
	analyzeLoad
	set  []service.AnalyzeRequest
	perm [][]int // each client's own seeded order over the set
	pos  []int
	// probed counts the layer probes' walk over the set.
	probed int
}

func newHits(seed int64) *hits {
	h := &hits{set: hitsSet(seed)}
	r := rand.New(rand.NewSource(seed))
	n := runtime.NumCPU()
	h.perm = make([][]int, n)
	h.pos = make([]int, n)
	for c := range h.perm {
		h.perm[c] = r.Perm(len(h.set))
	}
	h.analyzeLoad = newAnalyzeLoad(func(i int) service.AnalyzeRequest { return h.set[i] }, func(c int) (int, int, bool) {
		idx := h.perm[c][h.pos[c]%len(h.set)]
		h.pos[c]++
		return idx, 0, false
	}, func() (int, int) {
		h.probed++
		return h.probed % len(h.set), 0
	}, true)
	return h
}

// hitsSet builds the hits working set. About a quarter are analytic-lane
// requests (a single linear or diagonal placement under ODR, k = 8…256);
// the rest are computed keys, 15 on each of T²₈, T²₁₆, T³₈, T³₁₆ and T²₆₄,
// of which a fifth re-spell the key before them (a negative residue, an
// upper-case routing) and so share its cache entry.
func hitsSet(seed int64) []service.AnalyzeRequest {
	var set []service.AnalyzeRequest
	ks := []int{8, 16, 32, 64, 128, 256}
	for i := 0; i < 24; i++ {
		k, d := ks[i%len(ks)], 2+(i/len(ks))%2
		family := "linear"
		if i%4 == 3 {
			family = "diagonal"
		}
		routing := "odr"
		if pick(seed, i, 1, 0, 1) == 1 {
			routing = "ODR"
		}
		set = append(set, service.AnalyzeRequest{K: k, D: d,
			Placement: fmt.Sprintf("%s:%d", family, pick(seed, i, 2, -k, 2*k-1)), Routing: routing})
	}
	tori := []struct{ k, d, lo, hi int }{{8, 2, 6, 16}, {16, 2, 12, 32}, {8, 3, 24, 64}, {16, 3, 16, 48}, {64, 2, 32, 64}}
	for ti, tr := range tori {
		for j := 0; j < 15; j++ {
			i := 100 + 15*ti + j
			req := service.AnalyzeRequest{K: tr.k, D: tr.d, Routing: routings[pick(seed, i, 1, 0, 3)]}
			switch j % 5 {
			case 0, 1:
				req.Placement = fmt.Sprintf("random:%d:%d", pick(seed, i, 2, tr.lo, tr.hi), pick(seed, i, 3, 1, 1<<30))
			case 2:
				req.Placement = fmt.Sprintf("multi:%d:%d", pick(seed, i, 2, 2, 3), pick(seed, i, 3, 0, tr.k-1))
			case 3:
				req.Placement = fmt.Sprintf("linear:%d", pick(seed, i, 2, 0, tr.k-1))
				req.Routing = []string{"udr", "udr-multi"}[pick(seed, i, 1, 0, 1)]
			case 4:
				prev := set[len(set)-1]
				var c int
				if _, err := fmt.Sscanf(prev.Placement, "linear:%d", &c); err != nil {
					panic(err) // the case-3 spelling above always parses
				}
				req.Placement = fmt.Sprintf("linear:%d", c-tr.k)
				req.Routing = strings.ToUpper(prev.Routing)
			}
			set = append(set, req)
		}
	}
	return set
}

// setup boots one server and primes the working set: every request is
// sent once, by nproc concurrent clients.
func (h *hits) setup(ctx context.Context, tracer *obs.Tracer) (*target, error) {
	t, err := bootServer(ctx, serviceConfig(tracer))
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(h.set); i += n {
				if _, err := h.send(ctx, t, c, i, 0, false); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	h.primed += len(h.set)
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(fmt.Errorf("priming: %w", err), t.stop(ctx))
	}
	if h.ref == nil {
		h.ref = make([]answer, len(h.set))
		for _, as := range h.answers {
			for _, ans := range as {
				h.ref[ans.idx] = ans
			}
		}
	}
	return t, nil
}

// misses is the compute workload: every request is a key the cache does
// not hold.
type misses struct {
	analyzeLoad
	seed  int64
	drawn atomic.Int64               // requests drawn from the stream so far
	sym   [][]service.AnalyzeRequest // symmetric key spaces, seeded order
}

// missClasses is the number of request classes misses cycles through:
// four of random placements (generic engine) and four of symmetric ones
// (symmetry engine).
const missClasses = 8

func newMisses(seed int64) *misses {
	m := &misses{seed: seed, sym: symmetricSpaces(seed)}
	m.analyzeLoad = newAnalyzeLoad(m.request, func(int) (int, int, bool) {
		return int(m.drawn.Add(1) - 1), 0, false
	}, func() (int, int) {
		return int(m.drawn.Add(1) - 1), 0
	}, false)
	return m
}

// request is misses request idx. Class idx mod 8 fixes the torus and the
// placement family, so every run sees the same mix:
//
//	0–3  random placements on T²₈, T²₁₆, T³₈ and T³₁₆, under all four
//	     routings; each carries a placement seed no other request uses.
//	4–7  symmetric placements — multi-linear on T²_k (k = 8…32) and T³_k
//	     (k = 6…12), linear or diagonal under UDR, UDR-multi and
//	     ODR-multi on T²_k and T³_k (k = 6…16). Each class walks its key
//	     space in a seeded order, so a key returns only after the whole
//	     space (≥ 250 keys, ≥ 2000 requests) has passed: far more distinct
//	     keys than the 512-entry cache holds.
func (m *misses) request(idx int) service.AnalyzeRequest {
	class, j := idx%missClasses, idx/missClasses
	if class >= 4 {
		space := m.sym[class-4]
		return space[j%len(space)]
	}
	tori := []struct{ k, d, lo, hi int }{{8, 2, 6, 16}, {16, 2, 12, 32}, {8, 3, 16, 48}, {16, 3, 16, 40}}
	tr := tori[class]
	return service.AnalyzeRequest{
		K: tr.k, D: tr.d,
		Placement: fmt.Sprintf("random:%d:%d", pick(m.seed, idx, 1, tr.lo, tr.hi), idx+1),
		Routing:   routings[j%len(routings)],
	}
}

// symmetricSpaces enumerates the four symmetric key spaces of misses, each
// shuffled by seed.
func symmetricSpaces(seed int64) [][]service.AnalyzeRequest {
	linearRoutings := func(k int) []string {
		// ODR, and ODR-multi on odd k, would take the analytic lane.
		if k%2 == 0 {
			return []string{"udr", "udr-multi", "odr-multi"}
		}
		return []string{"udr", "udr-multi"}
	}
	var multi2, linear2, multi3, linear3 []service.AnalyzeRequest
	for k := 8; k <= 32; k++ {
		for s := 0; s < k; s++ {
			for _, a := range routings {
				for t := 2; t <= 3; t++ {
					multi2 = append(multi2, service.AnalyzeRequest{K: k, D: 2, Placement: fmt.Sprintf("multi:%d:%d", t, s), Routing: a})
				}
			}
			for _, a := range linearRoutings(k) {
				for _, fam := range []string{"linear", "diagonal"} {
					linear2 = append(linear2, service.AnalyzeRequest{K: k, D: 2, Placement: fmt.Sprintf("%s:%d", fam, s), Routing: a})
				}
			}
		}
	}
	for k := 6; k <= 16; k++ {
		for s := 0; s < k; s++ {
			if k <= 12 {
				for _, a := range routings {
					multi3 = append(multi3, service.AnalyzeRequest{K: k, D: 3, Placement: fmt.Sprintf("multi:2:%d", s), Routing: a})
				}
			}
			for _, a := range linearRoutings(k) {
				for _, fam := range []string{"linear", "diagonal"} {
					linear3 = append(linear3, service.AnalyzeRequest{K: k, D: 3, Placement: fmt.Sprintf("%s:%d", fam, s), Routing: a})
				}
			}
		}
	}
	spaces := [][]service.AnalyzeRequest{multi2, linear2, multi3, linear3}
	r := rand.New(rand.NewSource(seed))
	for _, sp := range spaces {
		r.Shuffle(len(sp), func(i, j int) { sp[i], sp[j] = sp[j], sp[i] })
	}
	return spaces
}

func (m *misses) setup(ctx context.Context, tracer *obs.Tracer) (*target, error) {
	return bootServer(ctx, serviceConfig(tracer))
}

// clusterLoad is the 3-node workload: a fresh small-torus key goes to the
// nodes round-robin, and each key is then read again at each other node.
// With two owners per key, a third of the ops are first reads (a compute
// or a peer fill), four ninths re-reads a node answers from its own cache
// or a replica, and two ninths re-reads served by a peer fill.
type clusterLoad struct {
	analyzeLoad
	seed   int64
	drawn  atomic.Int64 // requests drawn from the stream so far
	cursor []readCursor // per client, plus one for the layer probes
	// computed maps each canonical key to the node that computed it.
	computed sync.Map
}

// readCursor walks one key's reads: read r of key goes to node key+r.
type readCursor struct{ key, read int }

// clusterNodes is the harness cluster size.
const clusterNodes = 3

func newClusterLoad(seed int64) *clusterLoad {
	cl := &clusterLoad{seed: seed, cursor: make([]readCursor, runtime.NumCPU()+1)}
	for c := range cl.cursor {
		cl.cursor[c].read = clusterNodes
	}
	probe := len(cl.cursor) - 1
	cl.analyzeLoad = newAnalyzeLoad(cl.request, cl.advance, func() (int, int) {
		idx, node, _ := cl.advance(probe)
		return idx, node
	}, true)
	cl.computedAt = func(key string) (int, bool) {
		v, ok := cl.computed.Load(key)
		if !ok {
			return 0, false
		}
		return v.(int), true
	}
	return cl
}

// advance moves cursor c to its next read: the next node for the current
// key, or the first read of a fresh key once every node has read it.
func (cl *clusterLoad) advance(c int) (idx, node int, reread bool) {
	cur := &cl.cursor[c]
	if cur.read == clusterNodes {
		*cur = readCursor{key: int(cl.drawn.Add(1) - 1)}
	}
	idx, node, reread = cur.key, (cur.key+cur.read)%clusterNodes, cur.read > 0
	cur.read++
	return idx, node, reread
}

// request is cluster key idx: a random placement on T²₈ or T³₈ (kept
// small, so the peer hop and not the compute dominates), with a placement
// seed no other key uses.
func (cl *clusterLoad) request(idx int) service.AnalyzeRequest {
	req := service.AnalyzeRequest{K: 8, D: 2, Routing: routings[(idx/2)%len(routings)]}
	if idx%2 == 0 {
		req.Placement = fmt.Sprintf("random:%d:%d", pick(cl.seed, idx, 1, 4, 12), idx+1)
	} else {
		req.D = 3
		req.Placement = fmt.Sprintf("random:%d:%d", pick(cl.seed, idx, 1, 8, 24), idx+1)
	}
	return req
}

// setup boots the harness cluster and waits until every node is ready.
// In a traced run it also records which node computed each key.
func (cl *clusterLoad) setup(ctx context.Context, tracer *obs.Tracer) (*target, error) {
	opts := harness.Options{Nodes: clusterNodes, Service: serviceConfig(tracer)}
	if tracer != nil {
		// Only the traced run reports cluster.replica_hit_share; the
		// untraced one keeps the map out of the heap it measures.
		opts.OnCompute = func(node int, key string) { cl.computed.Store(key, node) }
	}
	nw, err := harness.Start(opts)
	if err != nil {
		return nil, err
	}
	t := &target{stop: nw.Stop}
	for _, n := range nw.Nodes {
		t.servers = append(t.servers, n.Server)
		t.clients = append(t.clients, n.Client)
	}
	if err := nw.WaitReady(ctx); err != nil {
		return nil, errors.Join(err, nw.Stop(ctx))
	}
	return t, nil
}

// layerShares measures two per-layer shares from the collected answers:
// the share of computed answers the symmetry engine produced, and on the
// cluster the share of re-reads a replica served — a cached answer at a
// node that did not compute the key.
func (a *analyzeLoad) layerShares() (symShare, replicaShare float64) {
	var sym, computed, rereads, replica int
	for _, as := range a.answers {
		for _, ans := range as {
			switch ans.engine {
			case load.EngineSymmetry:
				sym++
				computed++
			case load.EngineGeneric:
				computed++
			}
		}
	}
	if a.computedAt != nil {
		for _, rs := range a.rereads {
			for _, r := range rs {
				req := a.request(r.idx)
				if req.Canonicalize(service.DefaultMaxNodes) != nil {
					continue
				}
				node, ok := a.computedAt(req.CacheKey())
				if !ok {
					continue // a key of the untraced phase, which records no computes
				}
				rereads++
				if r.cached && node != r.node {
					replica++
				}
			}
		}
	}
	return share(float64(sym), float64(computed)), share(float64(replica), float64(rereads))
}
