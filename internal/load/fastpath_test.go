package load

import (
	"math"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

func mustBuild(t *testing.T, s placement.Spec, tr *torus.Torus) *placement.Placement {
	t.Helper()
	p, err := s.Build(tr)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), tr, err)
	}
	return p
}

// TestFastPathMatchesGenericAndExact is the property test of the PR: for
// translation-symmetric placements across even/odd k and d ∈ {2,3}, and all
// four dimension-ordered routing algorithms, the symmetry engine, the
// generic engine, and the big.Rat exact engine agree per edge.
func TestFastPathMatchesGenericAndExact(t *testing.T) {
	algs := []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}}
	specs := []placement.Spec{
		placement.Linear{C: 0},
		placement.Linear{C: 1},
		placement.MultipleLinear{T: 2},
	}
	for _, dims := range []struct{ k, d int }{{4, 2}, {5, 2}, {6, 2}, {4, 3}, {3, 3}} {
		tr := torus.New(dims.k, dims.d)
		for _, spec := range specs {
			p := mustBuild(t, spec, tr)
			for _, alg := range algs {
				fast := Compute(p, alg, Options{})
				if fast.Engine != EngineSymmetry {
					t.Fatalf("%s/%s on %s: fast path used engine %q", spec.Name(), alg.Name(), tr, fast.Engine)
				}
				generic := Compute(p, alg, Options{FastPath: FastPathOff})
				if generic.Engine != EngineGeneric {
					t.Fatalf("%s/%s on %s: FastPathOff used engine %q", spec.Name(), alg.Name(), tr, generic.Engine)
				}
				if div := MaxEngineDivergence(fast, generic); div > 1e-9 {
					t.Fatalf("%s/%s on %s: fast vs generic diverge by %g", spec.Name(), alg.Name(), tr, div)
				}
				exact, err := ComputeExact(p, alg)
				if err != nil {
					t.Fatalf("%s/%s on %s: exact engine: %v", spec.Name(), alg.Name(), tr, err)
				}
				for e := range fast.Loads {
					want, _ := exact.Loads[e].Float64()
					if math.Abs(fast.Loads[e]-want) > 1e-9*math.Max(1, want) {
						t.Fatalf("%s/%s on %s: edge %d fast %g, exact %g",
							spec.Name(), alg.Name(), tr, e, fast.Loads[e], want)
					}
				}
			}
		}
	}
}

// TestFastPathAutoDispatch checks the dispatcher's decisions: symmetric
// placements with equivariant algorithms take the fast path, everything
// else falls back to the generic engine.
func TestFastPathAutoDispatch(t *testing.T) {
	tr := torus.New(4, 2)
	linear := mustBuild(t, placement.Linear{C: 0}, tr)
	random := mustBuild(t, placement.Random{Count: 5, Seed: 1}, tr)

	if res := Compute(linear, routing.ODR{}, Options{}); res.Engine != EngineSymmetry {
		t.Fatalf("linear/ODR auto: engine %q, want symmetry", res.Engine)
	}
	// Random placements have a trivial stabilizer: auto must fall back.
	if res := Compute(random, routing.ODR{}, Options{}); res.Engine != EngineGeneric {
		t.Fatalf("random/ODR auto: engine %q, want generic", res.Engine)
	}
	// MeshODR is not translation-equivariant: symmetry would be unsound.
	if res := Compute(linear, routing.MeshODR{}, Options{}); res.Engine != EngineGeneric {
		t.Fatalf("linear/MeshODR auto: engine %q, want generic (unsound)", res.Engine)
	}
	if res := Compute(linear, routing.ODR{}, Options{FastPath: FastPathOff}); res.Engine != EngineGeneric {
		t.Fatalf("linear/ODR off: engine %q, want generic", res.Engine)
	}
}

// TestFastPathCrossCheckMode checks CrossCheck passes on sound inputs (it
// panics on divergence, so plain completion is the assertion), for both
// equivariant algorithms lacking an Into kernel (FAR) and those with one.
func TestFastPathCrossCheckMode(t *testing.T) {
	tr := torus.New(4, 2)
	p := mustBuild(t, placement.Linear{C: 0}, tr)
	for _, alg := range []routing.Algorithm{routing.ODRMulti{}, routing.FAR{}, routing.ODROrder{Order: []int{1, 0}}} {
		res := Compute(p, alg, Options{CrossCheck: true})
		if res.Engine != EngineSymmetry {
			t.Fatalf("%s: engine %q, want symmetry", alg.Name(), res.Engine)
		}
	}
}

// TestFastPathDeterministicAcrossWorkerCounts mirrors the generic engine's
// determinism contract for the symmetry engine, which runs serially in a
// fixed order whatever the worker count.
func TestFastPathDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := torus.New(6, 3)
	p := mustBuild(t, placement.Linear{C: 0}, tr)
	ref := Compute(p, routing.UDRMulti{}, Options{Workers: 1})
	for _, workers := range []int{2, 3, 8, 64} {
		got := Compute(p, routing.UDRMulti{}, Options{Workers: workers})
		if got.Engine != EngineSymmetry {
			t.Fatalf("workers=%d: engine %q", workers, got.Engine)
		}
		if div := MaxEngineDivergence(ref, got); div != 0 {
			t.Fatalf("workers=%d diverges from serial by %g", workers, div)
		}
	}
}

// TestFastPathConservation checks load conservation (Total = Σ Lee
// distances) holds for the symmetry engine, including multi-orbit
// placements.
func TestFastPathConservation(t *testing.T) {
	tr := torus.New(6, 2)
	for _, spec := range []placement.Spec{placement.Linear{C: 2}, placement.MultipleLinear{T: 3}} {
		p := mustBuild(t, spec, tr)
		res := Compute(p, routing.ODRMulti{}, Options{})
		if res.Engine != EngineSymmetry {
			t.Fatalf("%s: engine %q, want symmetry", spec.Name(), res.Engine)
		}
		if want := ExpectedTotal(p); math.Abs(res.Total-want) > 1e-6 {
			t.Fatalf("%s: total %g, want %g", spec.Name(), res.Total, want)
		}
	}
}

// FuzzSymmetryEngine is the oracle for the symmetry engine on small tori
// (k 2–7, d 2–3): for linear, multilinear, diagonal and random placements
// and every translation-equivariant algorithm it checks that the result
// matches the generic engine per edge, conserves the total load, and is
// constant on every coset of the stabilizer in each (dimension, direction)
// slot. Placements with a non-trivial stabilizer must take the symmetry
// engine, so the fuzzer cannot drift into testing the generic engine alone.
func FuzzSymmetryEngine(f *testing.F) {
	f.Add(4, 2, 0, 0, 0)
	f.Add(5, 3, 1, 2, 3)
	f.Add(6, 2, 2, 1, 1)
	f.Add(7, 2, 3, 5, 4)
	f.Add(6, 3, 4, 3, 5)
	f.Add(3, 3, 0, 7, 2)
	f.Add(2, 3, 1, 1, 0)
	f.Fuzz(func(t *testing.T, kRaw, dRaw, kind, param, algRaw int) {
		k := 2 + pick(kRaw, 6)
		d := 2 + pick(dRaw, 2)
		tr := torus.New(k, d)
		coeffs := make([]int, d)
		for j := range coeffs {
			coeffs[j] = 1 + pick(param+j, k)
		}
		var spec placement.Spec
		switch pick(kind, 5) {
		case 0:
			spec = placement.Linear{C: param}
		case 1:
			spec = placement.Linear{C: param, Coeffs: coeffs}
		case 2:
			spec = placement.MultipleLinear{Start: param, T: 1 + pick(param, k)}
		case 3:
			spec = placement.ShiftedDiagonal{Shift: param}
		default:
			spec = placement.Random{Count: 2 + pick(param, tr.Nodes()-1), Seed: int64(param)}
		}
		p, err := spec.Build(tr)
		if err != nil {
			t.Skip(err) // no unit coefficient mod k
		}
		order := make([]int, d) // a rotation of the dimensions
		for j := range order {
			order[j] = (j + pick(param, d)) % d
		}
		algs := []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{},
			routing.FAR{}, routing.ODROrder{Order: order}}
		alg := algs[pick(algRaw, len(algs))]

		fast := Compute(p, alg, Options{})
		stab := p.TranslationStabilizer()
		if len(stab) > 1 && p.Size() >= 2 && fast.Engine != EngineSymmetry {
			t.Fatalf("%s/%s on %s: |G|=%d but engine %q", p.Name(), alg.Name(), tr, len(stab), fast.Engine)
		}
		generic := Compute(p, alg, Options{FastPath: FastPathOff})
		for e := range fast.Loads {
			if math.Abs(fast.Loads[e]-generic.Loads[e]) > 1e-9 {
				t.Fatalf("%s/%s on %s: edge %s symmetry %g, generic %g",
					p.Name(), alg.Name(), tr, tr.EdgeString(torus.Edge(e)), fast.Loads[e], generic.Loads[e])
			}
		}
		if want := ExpectedTotal(p); math.Abs(fast.Total-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("%s/%s on %s: total %g, want %g", p.Name(), alg.Name(), tr, fast.Total, want)
		}
		for e := range fast.Loads {
			for _, g := range stab {
				img := tr.TranslateEdge(torus.Edge(e), g)
				if math.Abs(fast.Loads[img]-fast.Loads[e]) > 1e-9 {
					t.Fatalf("%s/%s on %s: load not G-invariant: edge %s %g, translate by %v %g",
						p.Name(), alg.Name(), tr, tr.EdgeString(torus.Edge(e)), fast.Loads[e], g, fast.Loads[img])
				}
			}
		}
	})
}

// pick maps any fuzzed integer onto [0, n).
func pick(x, n int) int { return int(uint(x) % uint(n)) }

// TestEffectiveWorkersPureFunction is the regression test for the workers
// bugfix task: the partial-accumulator count, and with it the float merge
// order, must depend only on (requested, items) — an over-request equal to
// the item count cap must produce bit-identical loads.
func TestEffectiveWorkersPureFunction(t *testing.T) {
	for _, tc := range []struct{ requested, items, want int }{
		{0, 10, effectiveWorkers(0, 10)}, // GOMAXPROCS-dependent, self-consistent
		{3, 10, 3},
		{10, 3, 3},
		{1000, 3, 3},
		{5, 0, 1},
		{-2, 0, 1},
	} {
		if got := effectiveWorkers(tc.requested, tc.items); got != tc.want {
			t.Fatalf("effectiveWorkers(%d, %d) = %d, want %d", tc.requested, tc.items, got, tc.want)
		}
	}

	tr := torus.New(5, 2)
	p := mustBuild(t, placement.Linear{C: 0}, tr) // |P| = 5
	for _, mode := range []FastPathMode{FastPathOff, FastPathAuto} {
		capped := Compute(p, routing.UDR{}, Options{Workers: 5, FastPath: mode})
		over := Compute(p, routing.UDR{}, Options{Workers: 1000, FastPath: mode})
		for e := range capped.Loads {
			if capped.Loads[e] != over.Loads[e] {
				t.Fatalf("mode %v: workers=5 and workers=1000 differ bitwise at edge %d: %g vs %g",
					mode, e, capped.Loads[e], over.Loads[e])
			}
		}
	}
}

// TestComputeGenericAllocFree pins the satellite's allocation win: the
// generic engine's steady state must not allocate per pair (only the fixed
// per-call buffers remain).
func TestComputeGenericAllocFree(t *testing.T) {
	tr := torus.New(6, 3)
	p := mustBuild(t, placement.Linear{C: 0}, tr) // 36 processors, 1260 pairs
	opts := Options{Workers: 1, FastPath: FastPathOff}
	for _, alg := range []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}} {
		allocs := testing.AllocsPerRun(3, func() {
			Compute(p, alg, opts)
		})
		// Fixed per-call cost: partials slice + worker local + scratch
		// buffers + Result; must not scale with the 1260 pairs.
		if allocs > 32 {
			t.Errorf("%s: generic Compute allocates %v times per call, want a small pair-independent constant", alg.Name(), allocs)
		}
	}
}
