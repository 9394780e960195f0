package routing

import "torusnet/internal/torus"

// This file is the allocation-free fast path of the load engine. The closure
// form of Algorithm.AccumulatePair stays as the canonical (and exact-engine)
// API; the Into kernels below add the same per-edge mass directly into a
// dense loads slice through a reusable per-worker scratch, so the steady
// state of load.Compute performs zero heap allocations per pair.

// TranslationEquivariant marks algorithms whose path sets commute with torus
// translations: C_{p⊕t → q⊕t} = {π ⊕ t : π ∈ C_{p→q}} for every offset t.
// All dimension-ordered schemes in this package qualify because their paths
// depend only on the coordinate deltas of (p, q), never on absolute
// coordinates. MeshODR does NOT qualify (the array metric distinguishes the
// wrap links) and deliberately does not implement the marker.
//
// The load engine's symmetry fast path requires this property: it computes
// one canonical source's edge loads and translates them to every other
// source, which is only sound when paths translate with their endpoints.
type TranslationEquivariant interface {
	Algorithm
	// TranslationEquivariant reports whether the implementation is
	// translation-equivariant. A dynamic guard (not just a marker method) so
	// wrapper algorithms can delegate the answer at runtime.
	TranslationEquivariant() bool
}

// IsTranslationEquivariant reports whether alg declares translation
// equivariance. Unknown algorithms are conservatively non-equivariant.
func IsTranslationEquivariant(alg Algorithm) bool {
	te, ok := alg.(TranslationEquivariant)
	return ok && te.TranslationEquivariant()
}

// inplaceAccumulator is implemented by algorithms that can accumulate a
// pair's per-edge expectation directly into a dense loads slice without
// going through a func(Edge, float64) closure. PairRouter prefers it.
type inplaceAccumulator interface {
	Algorithm
	// accumulatePairInto behaves exactly like AccumulatePair(t, p, q, add)
	// with add = func(e, w) { loads[e] += w }, but reuses sc for every
	// intermediate slice. loads must have length t.Edges(); sc must be a
	// PairRouter's scratch for a torus of the same dimension.
	accumulatePairInto(t *torus.Torus, p, q torus.Node, loads []float64, sc *pairScratch)
}

// pairScratch holds the buffers the Into kernels reuse across
// pairs. A scratch is sized for one torus dimension d and must not be shared
// between goroutines; each PairRouter owns one.
type pairScratch struct {
	dims   []int
	deltas []torus.Delta
	coords []int

	// While track is set, every edge that receives mass is appended to
	// touched (see PairRouter.RouteTracked).
	track   bool
	touched []torus.Edge
}

// newPairScratch returns a scratch sized for t. It is valid for any torus
// with the same dimension.
func newPairScratch(t *torus.Torus) pairScratch {
	d := t.D()
	return pairScratch{
		dims:   make([]int, 0, d),
		deltas: make([]torus.Delta, 0, d),
		coords: make([]int, d),
	}
}

// PairRouter is the single pair-routing entry point of the load engines and
// the placement searches: Route adds one ordered pair's per-edge
// expectation into a dense loads slice. Algorithms with an Into kernel go
// through it with the router's own scratch; the others go through their
// AccumulatePair closure, adapted once per router onto the target slice.
// A router must not be shared between goroutines.
type PairRouter struct {
	t    *torus.Torus
	alg  Algorithm
	into inplaceAccumulator // alg's Into kernel; nil when it has none
	sc   pairScratch

	add func(torus.Edge, float64) // callback adapter depositing into dst
	dst []float64
}

// NewPairRouter returns a router for alg on t.
func NewPairRouter(t *torus.Torus, alg Algorithm) *PairRouter {
	r := &PairRouter{t: t, alg: alg}
	if ia, ok := alg.(inplaceAccumulator); ok {
		r.into, r.sc = ia, newPairScratch(t)
	} else {
		r.add = func(e torus.Edge, w float64) {
			r.dst[e] += w
			if r.sc.track {
				r.sc.touched = append(r.sc.touched, e)
			}
		}
	}
	return r
}

// Route adds the expected load of the ordered pair (p, q) on every edge
// into loads, which must have length t.Edges().
func (r *PairRouter) Route(p, q torus.Node, loads []float64) {
	if r.into != nil {
		r.into.accumulatePairInto(r.t, p, q, loads, &r.sc)
		return
	}
	r.dst = loads
	r.alg.AccumulatePair(r.t, p, q, r.add)
}

// RouteTracked is Route that also appends every edge it adds load to, with
// repeats, onto touched and returns the extended slice. Passing the result
// back in reuses its storage, so a warm caller allocates nothing.
func (r *PairRouter) RouteTracked(p, q torus.Node, loads []float64, touched []torus.Edge) []torus.Edge {
	r.sc.track, r.sc.touched = true, touched
	r.Route(p, q, loads)
	touched = r.sc.touched
	r.sc.track, r.sc.touched = false, nil
	return touched
}

// differingInto is the scratch-backed form of differing: it fills sc.dims
// and sc.deltas with the dimensions where p and q differ.
func (sc *pairScratch) differingInto(t *torus.Torus, p, q torus.Node) ([]int, []torus.Delta) {
	dims, deltas := sc.dims[:0], sc.deltas[:0]
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(p, j), t.Coord(q, j), t.K())
		if del.Dist > 0 {
			dims = append(dims, j)
			deltas = append(deltas, del)
		}
	}
	sc.dims, sc.deltas = dims, deltas
	return dims, deltas
}

// accumulateDim adds weight w to every edge of a full dimension-j correction
// of 'steps' hops starting at 'from', directly into loads, and returns the
// node reached. It is visitDim with the closure flattened out. The tracked
// loop is kept apart so the load engine's loop carries no per-edge branch.
func (sc *pairScratch) accumulateDim(t *torus.Torus, from torus.Node, j int, dir torus.Direction, steps int, w float64, loads []float64) torus.Node {
	cur := from
	if sc.track {
		for s := 0; s < steps; s++ {
			e := t.EdgeFrom(cur, j, dir)
			loads[e] += w
			sc.touched = append(sc.touched, e)
			cur = t.Step(cur, j, dir)
		}
		return cur
	}
	for s := 0; s < steps; s++ {
		e := t.EdgeFrom(cur, j, dir)
		loads[e] += w
		cur = t.Step(cur, j, dir)
	}
	return cur
}

// TranslationEquivariant implements the marker: ODR paths depend only on
// coordinate deltas.
func (ODR) TranslationEquivariant() bool { return true }

// accumulatePairInto implements inplaceAccumulator: the unique canonical
// path carries the full unit mass.
func (ODR) accumulatePairInto(t *torus.Torus, p, q torus.Node, loads []float64, sc *pairScratch) {
	statPairsODR.Inc()
	cur := p
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(cur, j), t.Coord(q, j), t.K())
		cur = sc.accumulateDim(t, cur, j, del.Dir, del.Dist, 1, loads)
	}
}

// TranslationEquivariant implements the marker.
func (ODRMulti) TranslationEquivariant() bool { return true }

// accumulatePairInto implements inplaceAccumulator. The state machine of
// AccumulatePair never forks — a tied dimension's two arcs converge on the
// same node — so the kernel is a single forward walk where tied dimensions
// halve the edge mass across both arcs.
func (ODRMulti) accumulatePairInto(t *torus.Torus, p, q torus.Node, loads []float64, sc *pairScratch) {
	statPairsODRMulti.Inc()
	cur := p
	for j := 0; j < t.D(); j++ {
		del := torus.CoordDelta(t.Coord(p, j), t.Coord(q, j), t.K())
		if del.Dist == 0 {
			continue
		}
		if del.Tie {
			sc.accumulateDim(t, cur, j, torus.Plus, del.Dist, 0.5, loads)
			cur = sc.accumulateDim(t, cur, j, torus.Minus, del.Dist, 0.5, loads)
		} else {
			cur = sc.accumulateDim(t, cur, j, del.Dir, del.Dist, 1, loads)
		}
	}
}

// TranslationEquivariant implements the marker.
func (UDR) TranslationEquivariant() bool { return true }

// accumulatePairInto implements inplaceAccumulator with the same segment
// decomposition as AccumulatePair (|S|!·(s−1−|S|)!/s! per "S corrected
// before j" segment), but with dims/deltas/coords drawn from the scratch and
// the 'others' indirection replaced by skipping jIdx in the mask loop.
func (UDR) accumulatePairInto(t *torus.Torus, p, q torus.Node, loads []float64, sc *pairScratch) {
	statPairsUDR.Inc()
	dims, deltas := sc.differingInto(t, p, q)
	s := len(dims)
	if s == 0 {
		return
	}
	sFact := factorial(s)
	coords := sc.coords
	for jIdx := 0; jIdx < s; jIdx++ {
		for mask := 0; mask < 1<<(s-1); mask++ {
			t.CoordsInto(p, coords)
			size := 0
			bit := 0
			for i := 0; i < s; i++ {
				if i == jIdx {
					continue
				}
				if mask&(1<<bit) != 0 {
					coords[dims[i]] = t.Coord(q, dims[i])
					size++
				}
				bit++
			}
			w := factorial(size) * factorial(s-1-size) / sFact
			start := t.NodeAt(coords)
			sc.accumulateDim(t, start, dims[jIdx], deltas[jIdx].Dir, deltas[jIdx].Dist, w, loads)
		}
	}
}

// TranslationEquivariant implements the marker.
func (UDRMulti) TranslationEquivariant() bool { return true }

// accumulatePairInto implements inplaceAccumulator: UDR's order-position
// weights with tie expansion halving each tied segment across its two arcs.
func (UDRMulti) accumulatePairInto(t *torus.Torus, p, q torus.Node, loads []float64, sc *pairScratch) {
	statPairsUDRMulti.Inc()
	dims, deltas := sc.differingInto(t, p, q)
	s := len(dims)
	if s == 0 {
		return
	}
	sFact := factorial(s)
	coords := sc.coords
	for jIdx := 0; jIdx < s; jIdx++ {
		for mask := 0; mask < 1<<(s-1); mask++ {
			t.CoordsInto(p, coords)
			size := 0
			bit := 0
			for i := 0; i < s; i++ {
				if i == jIdx {
					continue
				}
				if mask&(1<<bit) != 0 {
					coords[dims[i]] = t.Coord(q, dims[i])
					size++
				}
				bit++
			}
			w := factorial(size) * factorial(s-1-size) / sFact
			start := t.NodeAt(coords)
			del := deltas[jIdx]
			if del.Tie {
				sc.accumulateDim(t, start, dims[jIdx], torus.Plus, del.Dist, w/2, loads)
				sc.accumulateDim(t, start, dims[jIdx], torus.Minus, del.Dist, w/2, loads)
			} else {
				sc.accumulateDim(t, start, dims[jIdx], del.Dir, del.Dist, w, loads)
			}
		}
	}
}

// TranslationEquivariant implements the marker: ODROrder permutes the
// correction order but still routes by coordinate deltas only.
func (o ODROrder) TranslationEquivariant() bool { return true }

// TranslationEquivariant implements the marker: FAR's path set is every
// minimal path, which is determined by the coordinate deltas alone.
func (FAR) TranslationEquivariant() bool { return true }
