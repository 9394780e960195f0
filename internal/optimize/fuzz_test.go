package optimize

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// FuzzSearchLoads is the oracle for the searchers' incremental load state.
// On a small torus it starts from a random placement and replays a random
// sequence of annealing relocations (accepted or rejected) and
// branch-and-bound add/backtrack steps. After every step the incremental
// loads must match load.Compute on the same node set within 1e-9 per edge,
// and a rejected relocation must leave the current loads bit-identical.
// MeshODR covers the non-equivariant case; FAR and ODROrder cover the
// callback path of routing.PairRouter.
func FuzzSearchLoads(f *testing.F) {
	// ops bytes: low two bits pick accept / reject / bnb add / bnb
	// backtrack, the rest picks the moved processor.
	f.Add(uint8(2), uint8(0), uint8(0), int64(1), []byte{0, 1, 2, 2, 3, 2, 4, 9, 2, 3, 3, 2, 2})
	f.Add(uint8(3), uint8(1), uint8(1), int64(2), []byte{2, 2, 2, 3, 2, 0, 4, 5, 8, 3, 2, 1, 0})
	f.Add(uint8(1), uint8(1), uint8(2), int64(3), []byte{4, 2, 6, 2, 7, 3, 3, 2, 2, 1, 0, 12})
	f.Add(uint8(4), uint8(0), uint8(3), int64(4), []byte{2, 2, 2, 2, 3, 3, 2, 2, 0, 1, 4, 5})
	f.Add(uint8(0), uint8(1), uint8(4), int64(5), []byte{0, 4, 8, 2, 2, 3, 2, 1, 5})
	f.Add(uint8(2), uint8(0), uint8(5), int64(6), []byte{2, 2, 3, 2, 0, 1, 4, 2, 3, 2})
	f.Add(uint8(3), uint8(0), uint8(6), int64(7), []byte{0, 2, 2, 2, 3, 3, 2, 1, 4, 8})
	f.Fuzz(func(t *testing.T, kRaw, dRaw, algRaw uint8, seed int64, ops []byte) {
		k, d := 2+int(kRaw)%5, 2+int(dRaw)%2
		tr := torus.New(k, d)
		order := make([]int, d) // the reversed correction order
		for j := range order {
			order[j] = d - 1 - j
		}
		algs := []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{},
			routing.ODROrder{Order: order}, routing.FAR{}, routing.MeshODR{}}
		alg := algs[int(algRaw)%len(algs)]
		if len(ops) > 32 {
			ops = ops[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		n := tr.Nodes()
		size := 2 + rng.Intn(min(n-2, 16)) // at least one free node
		perm := rng.Perm(n)
		current := make([]torus.Node, size)
		occupied := make([]bool, n)
		for i := range current {
			current[i] = torus.Node(perm[i])
			occupied[current[i]] = true
		}
		state := newRelocation(tr, alg, exchangeLoads(tr, current, alg))
		b := newBnb(tr, alg, size)
		for step, op := range ops {
			switch op % 4 {
			case 0, 1: // relocation, accepted on 0 and rejected on 1
				pi := int(op/4) % size
				target := torus.Node(rng.Intn(n))
				for occupied[target] {
					target = torus.Node((int(target) + 1) % n)
				}
				before := append([]float64(nil), state.loads...)
				next := state.propose(current, pi, target)
				moved := append([]torus.Node(nil), current...)
				moved[pi] = target
				want := exchangeLoads(tr, moved, alg)
				checkLoads(t, step, "proposal", alg, state.next, want)
				if math.Abs(next-maxLoad(want)) > 1e-9 {
					t.Fatalf("step %d %s: proposal max %v, load engine %v", step, alg.Name(), next, maxLoad(want))
				}
				if op%4 == 1 {
					for e, v := range state.loads {
						if math.Float64bits(v) != math.Float64bits(before[e]) {
							t.Fatalf("step %d %s: rejected move changed edge %d: %v -> %v", step, alg.Name(), e, before[e], v)
						}
					}
					continue
				}
				state.accept()
				occupied[current[pi]], occupied[target] = false, true
				current[pi] = target
				checkLoads(t, step, "accepted", alg, state.loads, want)
			case 2: // branch-and-bound descends one depth
				if len(b.chosen) == size {
					continue
				}
				v := torus.Node(rng.Intn(n))
				for slices.Contains(b.chosen, v) {
					v = torus.Node((int(v) + 1) % n)
				}
				got := b.addNode(v)
				want := exchangeLoads(tr, b.chosen, alg)
				checkLoads(t, step, "bnb add", alg, b.levels[len(b.chosen)], want)
				if math.Abs(got-maxLoad(want)) > 1e-9 {
					t.Fatalf("step %d %s: bnb max %v, load engine %v", step, alg.Name(), got, maxLoad(want))
				}
				if scan := maxLoad(b.levels[len(b.chosen)]); math.Float64bits(got) != math.Float64bits(scan) {
					t.Fatalf("step %d %s: bnb running max %v, level scan %v", step, alg.Name(), got, scan)
				}
			default: // branch-and-bound backtracks one depth
				if len(b.chosen) == 0 {
					continue
				}
				b.chosen = b.chosen[:len(b.chosen)-1]
				checkLoads(t, step, "bnb backtrack", alg, b.levels[len(b.chosen)], exchangeLoads(tr, b.chosen, alg))
			}
		}
	})
}

// exchangeLoads is the load engine's per-edge complete-exchange load of
// nodes (all zero below two processors).
func exchangeLoads(t *torus.Torus, nodes []torus.Node, alg routing.Algorithm) []float64 {
	if len(nodes) < 2 {
		return make([]float64, t.Edges())
	}
	return load.Compute(placement.New(t, nodes, "oracle"), alg, load.Options{}).Loads
}

func checkLoads(t *testing.T, step int, what string, alg routing.Algorithm, got, want []float64) {
	t.Helper()
	for e := range want {
		if math.Abs(got[e]-want[e]) > 1e-9 {
			t.Fatalf("step %d %s %s: edge %d incremental %v, load engine %v", step, what, alg.Name(), e, got[e], want[e])
		}
	}
}

// maxLoad returns the largest entry of loads (0 for none).
func maxLoad(loads []float64) float64 {
	m := 0.0
	for _, v := range loads {
		m = max(m, v)
	}
	return m
}
