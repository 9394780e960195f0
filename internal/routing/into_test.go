package routing

import (
	"math"
	"testing"

	"torusnet/internal/torus"
)

// TestAccumulatePairIntoMatchesClosure checks, for every inplaceAccumulator
// and a mix of even/odd k (ties and no ties), that the Into kernel deposits
// exactly the same per-edge mass as the closure-based AccumulatePair.
func TestAccumulatePairIntoMatchesClosure(t *testing.T) {
	algs := []inplaceAccumulator{ODR{}, ODRMulti{}, UDR{}, UDRMulti{}}
	for _, tc := range []struct{ k, d int }{{4, 2}, {5, 2}, {4, 3}, {3, 3}, {6, 2}} {
		tr := torus.New(tc.k, tc.d)
		sc := newPairScratch(tr)
		for _, alg := range algs {
			want := make([]float64, tr.Edges())
			got := make([]float64, tr.Edges())
			for p := 0; p < tr.Nodes(); p++ {
				for q := 0; q < tr.Nodes(); q++ {
					for i := range want {
						want[i], got[i] = 0, 0
					}
					alg.AccumulatePair(tr, torus.Node(p), torus.Node(q),
						func(e torus.Edge, w float64) { want[e] += w })
					alg.accumulatePairInto(tr, torus.Node(p), torus.Node(q), got, &sc)
					for e := range want {
						if math.Abs(want[e]-got[e]) > 1e-12 {
							t.Fatalf("%s on T^%d_%d pair (%d,%d) edge %d: closure %g, into %g",
								alg.Name(), tc.d, tc.k, p, q, e, want[e], got[e])
						}
					}
				}
			}
		}
	}
}

// TestAccumulatePairIntoAllocFree checks the kernels are allocation-free in
// steady state — the property the load engine's hot loop relies on.
func TestAccumulatePairIntoAllocFree(t *testing.T) {
	tr := torus.New(6, 3)
	sc := newPairScratch(tr)
	loads := make([]float64, tr.Edges())
	p, q := torus.Node(0), torus.Node(tr.Nodes()-1)
	for _, alg := range []inplaceAccumulator{ODR{}, ODRMulti{}, UDR{}, UDRMulti{}} {
		allocs := testing.AllocsPerRun(20, func() {
			alg.accumulatePairInto(tr, p, q, loads, &sc)
		})
		if allocs != 0 {
			t.Errorf("%s.accumulatePairInto allocates %v times per pair, want 0", alg.Name(), allocs)
		}
	}
}

// TestPairRouterMatchesClosure checks that PairRouter deposits exactly the
// closure's per-edge mass on both of its paths (Into kernel and callback
// adapter) and adds no allocation per pair beyond the algorithm's own.
func TestPairRouterMatchesClosure(t *testing.T) {
	tr := torus.New(5, 3)
	algs := []Algorithm{ODR{}, ODRMulti{}, UDR{}, UDRMulti{}, FAR{}, ODROrder{Order: []int{2, 0, 1}}, MeshODR{}}
	for _, alg := range algs {
		r := NewPairRouter(tr, alg)
		want := make([]float64, tr.Edges())
		got := make([]float64, tr.Edges())
		for p := 0; p < tr.Nodes(); p += 7 {
			for q := 0; q < tr.Nodes(); q += 3 {
				alg.AccumulatePair(tr, torus.Node(p), torus.Node(q), func(e torus.Edge, w float64) { want[e] += w })
				r.Route(torus.Node(p), torus.Node(q), got)
			}
		}
		for e := range want {
			if math.Abs(want[e]-got[e]) > 1e-12 {
				t.Fatalf("%s edge %d: closure %g, router %g", alg.Name(), e, want[e], got[e])
			}
		}
		p, q := torus.Node(0), torus.Node(tr.Nodes()-1)
		add := func(e torus.Edge, w float64) { want[e] += w }
		own := testing.AllocsPerRun(20, func() { alg.AccumulatePair(tr, p, q, add) })
		if allocs := testing.AllocsPerRun(20, func() { r.Route(p, q, got) }); allocs > own {
			t.Errorf("%s: Route allocates %v times per pair, the algorithm itself %v", alg.Name(), allocs, own)
		}
	}
}

// TestRouteTrackedRecordsTouchedEdges checks that RouteTracked deposits
// exactly Route's loads and reports exactly the edges that received mass,
// on both router paths, without allocating once its buffer is warm.
func TestRouteTrackedRecordsTouchedEdges(t *testing.T) {
	tr := torus.New(4, 3)
	algs := []Algorithm{ODR{}, ODRMulti{}, UDR{}, UDRMulti{}, FAR{}, ODROrder{Order: []int{2, 0, 1}}, MeshODR{}}
	for _, alg := range algs {
		r := NewPairRouter(tr, alg)
		var touched []torus.Edge
		for p := 0; p < tr.Nodes(); p += 5 {
			for q := 0; q < tr.Nodes(); q += 3 {
				want := make([]float64, tr.Edges())
				got := make([]float64, tr.Edges())
				r.Route(torus.Node(p), torus.Node(q), want)
				touched = r.RouteTracked(torus.Node(p), torus.Node(q), got, touched[:0])
				seen := make([]bool, tr.Edges())
				for _, e := range touched {
					seen[e] = true
				}
				for e := range want {
					if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
						t.Fatalf("%s pair (%d,%d) edge %d: tracked %g, untracked %g", alg.Name(), p, q, e, got[e], want[e])
					}
					if seen[e] != (want[e] != 0) {
						t.Fatalf("%s pair (%d,%d) edge %d: reported %t, load %g", alg.Name(), p, q, e, seen[e], want[e])
					}
				}
			}
		}
		p, q := torus.Node(0), torus.Node(tr.Nodes()-1)
		loads := make([]float64, tr.Edges())
		own := testing.AllocsPerRun(20, func() { r.Route(p, q, loads) })
		touched = r.RouteTracked(p, q, loads, touched[:0])
		if allocs := testing.AllocsPerRun(20, func() { touched = r.RouteTracked(p, q, loads, touched[:0]) }); allocs > own {
			t.Errorf("%s: warm RouteTracked allocates %v times per pair, Route %v", alg.Name(), allocs, own)
		}
	}
}

// TestTranslationEquivariance verifies the marker claims empirically: for
// every algorithm declaring equivariance, translating both endpoints by an
// offset translates the per-edge load pattern by the same offset.
// MeshODR must not declare equivariance (its array metric is absolute).
func TestTranslationEquivariance(t *testing.T) {
	if IsTranslationEquivariant(MeshODR{}) {
		t.Fatal("MeshODR must not be translation-equivariant")
	}
	algs := []Algorithm{ODR{}, ODRMulti{}, UDR{}, UDRMulti{}, FAR{}, ODROrder{Order: []int{1, 0}}}
	tr := torus.New(4, 2)
	offsets := [][]int{{1, 0}, {2, 3}, {3, 1}}
	for _, alg := range algs {
		if !IsTranslationEquivariant(alg) {
			t.Fatalf("%s should declare translation equivariance", alg.Name())
		}
		for _, off := range offsets {
			for p := 0; p < tr.Nodes(); p++ {
				for q := 0; q < tr.Nodes(); q++ {
					base := make([]float64, tr.Edges())
					alg.AccumulatePair(tr, torus.Node(p), torus.Node(q),
						func(e torus.Edge, w float64) { base[e] += w })
					shifted := make([]float64, tr.Edges())
					alg.AccumulatePair(tr, tr.Translate(torus.Node(p), off), tr.Translate(torus.Node(q), off),
						func(e torus.Edge, w float64) { shifted[e] += w })
					for e := range base {
						img := tr.TranslateEdge(torus.Edge(e), off)
						if math.Abs(base[e]-shifted[img]) > 1e-12 {
							t.Fatalf("%s offset %v pair (%d,%d): edge %d load %g, translated %g",
								alg.Name(), off, p, q, e, base[e], shifted[img])
						}
					}
				}
			}
		}
	}
}
