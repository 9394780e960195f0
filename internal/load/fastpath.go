package load

import (
	"context"
	"fmt"
	"math"

	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// The translation-symmetry fast path (Theorem 2's mechanism, generalized).
//
// When the placement is closed under a translation subgroup G and the
// routing algorithm is translation-equivariant, the load vector is
// G-invariant: a link's load depends only on its G-coset and its
// (dimension, direction) slot, not on the node it leaves. Source r ⊕ g
// contributes the pattern of source r shifted by g, so with base the summed
// patterns of one representative source per G-orbit,
//
//	load[u, s] = Σ_{v ∈ u+G} base[v, s].
//
// The engine therefore
//
//  1. labels every node by its G-coset (each has exactly |G| members,
//     because translations act freely),
//  2. walks routes for ONE representative source per orbit against all
//     destinations into a single |E| buffer (O(|P|/|G| · |P| · d · k)
//     routing work),
//  3. folds that buffer onto |N|/|G| cosets × 2d slots, and
//  4. copies each coset's folded row back to its member nodes.
//
// For a linear placement |G| = k^{d−1} = |P|, so step 2 collapses to a
// single source. Everything runs serially in a fixed order, so the result
// does not depend on the worker count.

// computeSymmetry runs the fast path, reporting ok=false when it does not
// apply: non-equivariant algorithm, fewer than two processors, or a trivial
// stabilizer, for which the fold is just a slower serial generic loop.
func computeSymmetry(ctx context.Context, p *placement.Placement, alg routing.Algorithm) (*Result, bool) {
	if !routing.IsTranslationEquivariant(alg) {
		return nil, false
	}
	t := p.Torus()
	procs := p.Nodes()
	if len(procs) < 2 {
		return nil, false
	}
	stab := p.TranslationStabilizer()
	if len(stab) == 1 {
		return nil, false
	}
	coset, cosets := cosetLabels(t, stab)

	// Base vectors: the first processor met in index order stands for its
	// orbit (P is a union of G-cosets), and every representative routes to
	// every destination in a fixed order into the one shared buffer.
	loads := make([]float64, t.Edges())
	func() {
		_, bsp := obs.Start(ctx, "load.bases")
		defer bsp.End()
		bsp.SetAttrInt("orbits", int64(len(procs)/len(stab)))
		bsp.SetAttrInt("stabilizer", int64(len(stab)))
		withEngineLabel(ctx, EngineSymmetry, func() {
			r := routing.NewPairRouter(t, alg)
			seen := make([]bool, cosets)
			for _, rep := range procs {
				if seen[coset[rep]] {
					continue
				}
				seen[coset[rep]] = true
				for _, dst := range procs {
					if dst == rep {
						continue
					}
					r.Route(rep, dst, loads)
				}
			}
		})
	}()

	// Fold by (coset, slot), then broadcast each folded row back over the
	// base buffer, which becomes the load vector.
	func() {
		_, fsp := obs.Start(ctx, "load.fold")
		defer fsp.End()
		fsp.SetAttrInt("cosets", int64(cosets))
		td2 := 2 * t.D()
		folded := make([]float64, cosets*td2)
		for u, c := range coset {
			row := folded[int(c)*td2 : int(c+1)*td2]
			for s, v := range loads[u*td2 : (u+1)*td2] {
				row[s] += v
			}
		}
		for u, c := range coset {
			copy(loads[u*td2:(u+1)*td2], folded[int(c)*td2:int(c+1)*td2])
		}
	}()
	res := newResult(t, p, alg.Name(), loads)
	res.Engine = EngineSymmetry
	return res, true
}

// cosetLabels numbers the cosets u+G of the stabilizer G in order of their
// smallest node and returns every node's coset with the coset count
// |N|/|G|. Stabilizer offsets have coordinates in [0, k), so each image
// coordinate wraps with one subtraction, and the image index is recomposed
// from the row-major strides CoordsInto decodes (dimension 0 fastest).
func cosetLabels(t *torus.Torus, stab [][]int) ([]int32, int) {
	k := t.K()
	coset := make([]int32, t.Nodes())
	for u := range coset {
		coset[u] = -1
	}
	coords := make([]int, t.D())
	next := int32(0)
	for u := range coset {
		if coset[u] >= 0 {
			continue
		}
		t.CoordsInto(torus.Node(u), coords)
		for _, off := range stab {
			img, stride := 0, 1
			for j, c := range coords {
				if c += off[j]; c >= k {
					c -= k
				}
				img += c * stride
				//lint:ignore overflowvol stride ≤ k^{d−1} < t.Nodes(), which torus.New bounds by MaxNodes.
				stride *= k
			}
			coset[img] = next
		}
		next++
	}
	return coset, int(next)
}

// crossCheckTolerance bounds the relative divergence the two engines may
// accumulate from their different floating-point summation orders.
const crossCheckTolerance = 1e-9

// crossCheck panics if the fast-path result diverges from the generic
// reference beyond summation-order tolerance. A failure means a soundness
// bug (a placement or algorithm wrongly admitted to the fast path), which
// must never be papered over.
func crossCheck(fast, generic *Result) {
	for e := range fast.Loads {
		a, b := fast.Loads[e], generic.Loads[e]
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		if math.Abs(a-b) > crossCheckTolerance*scale {
			panic(fmt.Sprintf(
				"load: symmetry fast path diverges from generic engine on %s with %s: edge %d has %g vs %g",
				fast.Placement, fast.Algorithm, e, a, b))
		}
	}
}

// MaxEngineDivergence computes the maximum absolute per-edge difference
// between two results on the same torus — the cross-check statistic the E31
// experiment reports. It panics if the edge sets differ in size.
func MaxEngineDivergence(a, b *Result) float64 {
	if len(a.Loads) != len(b.Loads) {
		panic(fmt.Sprintf("load: comparing results with %d and %d edges", len(a.Loads), len(b.Loads)))
	}
	worst := 0.0
	for e := range a.Loads {
		if d := math.Abs(a.Loads[e] - b.Loads[e]); d > worst {
			worst = d
		}
	}
	return worst
}
