package optimize

import (
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// The incremental load state both searchers share. A search step changes
// the traffic of one processor only, so instead of recomputing the whole
// O(|P|²) complete exchange through the load engine, the searchers route
// just that processor's pairs through one routing.PairRouter into dense
// per-edge buffers.

// searchEps absorbs float summation-order noise between the incremental
// loads and the load engine's totals for fractional (multi-path)
// algorithms; single-path loads are small integers and unaffected. Every
// tie test of both searchers uses it.
const searchEps = 1e-9

// exchangeInto adds the complete-exchange traffic between v and every node
// of others except others[skip] (skip < 0 keeps them all), in both
// directions, into loads.
func exchangeInto(r *routing.PairRouter, v torus.Node, others []torus.Node, skip int, loads []float64) {
	for i, u := range others {
		if i == skip {
			continue
		}
		r.Route(u, v, loads)
		r.Route(v, u, loads)
	}
}

// newLoadVectors returns n zeroed per-edge load vectors of the given
// length, carved from one allocation.
func newLoadVectors(n, edges int) [][]float64 {
	buf := make([]float64, n*edges)
	levels := make([][]float64, n)
	for m := range levels {
		levels[m] = buf[m*edges : (m+1)*edges : (m+1)*edges]
	}
	return levels
}

// relocation is the annealer's incremental load state. loads is the
// per-edge load of the current placement. propose builds the load of a
// one-processor relocation in next without touching loads; accept makes
// it current by swapping the two buffers, and a rejected proposal needs
// no undo.
type relocation struct {
	r       *routing.PairRouter
	loads   []float64 // current placement
	next    []float64 // last proposal
	out, in []float64 // the moved processor's traffic before and after
}

// newRelocation takes ownership of loads, the per-edge load of the start
// placement on t under alg.
func newRelocation(t *torus.Torus, alg routing.Algorithm, loads []float64) *relocation {
	bufs := newLoadVectors(3, t.Edges())
	return &relocation{r: routing.NewPairRouter(t, alg), loads: loads, next: bufs[0], out: bufs[1], in: bufs[2]}
}

// propose sets next to the load of current with current[pi] moved to the
// free node target, next = loads − out + in, and returns its maximum.
func (m *relocation) propose(current []torus.Node, pi int, target torus.Node) float64 {
	clear(m.out)
	clear(m.in)
	exchangeInto(m.r, current[pi], current, pi, m.out)
	exchangeInto(m.r, target, current, pi, m.in)
	mx := 0.0
	for e, v := range m.loads {
		v += m.in[e] - m.out[e]
		m.next[e] = v
		if v > mx {
			mx = v
		}
	}
	return mx
}

// accept makes the last proposal the current load.
func (m *relocation) accept() { m.loads, m.next = m.next, m.loads }
