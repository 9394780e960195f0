package torus

import "testing"

// Fuzz targets run their seed corpus under plain `go test` and can be
// extended with `go test -fuzz=FuzzX ./internal/torus`.

func FuzzCoordDelta(f *testing.F) {
	f.Add(0, 0, 2)
	f.Add(3, 1, 5)
	f.Add(7, 3, 8)
	f.Add(100, -3, 17)
	f.Fuzz(func(t *testing.T, p, q, kRaw int) {
		k := kRaw%64 + 2
		if k < 2 {
			k = 2 - k // keep k >= 2 for negative raw values
		}
		pp := ((p % k) + k) % k
		qq := ((q % k) + k) % k
		del := CoordDelta(pp, qq, k)
		if del.Dist < 0 || del.Dist > k/2 {
			t.Fatalf("distance %d out of [0, %d]", del.Dist, k/2)
		}
		if del.Dist != CyclicDistance(pp, qq, k) {
			t.Fatal("delta distance disagrees with CyclicDistance")
		}
		// Walking Dist steps in Dir reaches q.
		c := pp
		for s := 0; s < del.Dist; s++ {
			if del.Dir == Plus {
				c = (c + 1) % k
			} else {
				c = (c - 1 + k) % k
			}
		}
		if c != qq {
			t.Fatalf("walk from %d in %v for %d steps ends at %d, want %d", pp, del.Dir, del.Dist, c, qq)
		}
		if del.Tie && (k%2 != 0 || del.Dist != k/2) {
			t.Fatal("tie flagged away from the antipode")
		}
	})
}

func FuzzNodeRoundTrip(f *testing.F) {
	f.Add(3, 2, 0)
	f.Add(5, 3, 77)
	f.Add(8, 2, 63)
	f.Fuzz(func(t *testing.T, kRaw, dRaw, nodeRaw int) {
		k := abs(kRaw)%7 + 2
		d := abs(dRaw)%4 + 1
		tr := New(k, d)
		u := Node(abs(nodeRaw) % tr.Nodes())
		if got := tr.NodeAt(tr.Coords(u)); got != u {
			t.Fatalf("round trip %d -> %v -> %d", u, tr.Coords(u), got)
		}
		// Lee distance to self is 0 and to a +1 neighbor is 1.
		if tr.LeeDistance(u, u) != 0 {
			t.Fatal("self distance nonzero")
		}
		if tr.LeeDistance(u, tr.Step(u, 0, Plus)) != 1 && k > 2 {
			t.Fatal("neighbor distance not 1")
		}
	})
}

// FuzzLeeDistance checks the metric axioms of the Lee distance for arbitrary
// (including negative) raw node material: symmetry, identity, the triangle
// inequality, and the per-dimension bound 0 <= cyclic distance <= k/2.
func FuzzLeeDistance(f *testing.F) {
	f.Add(4, 2, 0, 1, 2)
	f.Add(5, 3, 7, 100, -3)
	f.Add(8, 1, -6, 63, 12)
	f.Add(2, 4, 1, -1, 15)
	f.Fuzz(func(t *testing.T, kRaw, dRaw, uRaw, vRaw, wRaw int) {
		k := abs(kRaw)%8 + 2
		d := abs(dRaw)%4 + 1
		tr := New(k, d)
		u := Node(Mod(uRaw, tr.Nodes()))
		v := Node(Mod(vRaw, tr.Nodes()))
		w := Node(Mod(wRaw, tr.Nodes()))

		duv := tr.LeeDistance(u, v)
		if duv != tr.LeeDistance(v, u) {
			t.Fatalf("asymmetric: Lee(%d,%d)=%d, Lee(%d,%d)=%d", u, v, duv, v, u, tr.LeeDistance(v, u))
		}
		if duv < 0 || duv > d*(k/2) {
			t.Fatalf("Lee(%d,%d)=%d out of [0,%d]", u, v, duv, d*(k/2))
		}
		if (duv == 0) != (u == v) {
			t.Fatalf("Lee(%d,%d)=%d violates identity of indiscernibles", u, v, duv)
		}
		if tr.LeeDistance(u, w) > duv+tr.LeeDistance(v, w) {
			t.Fatalf("triangle violated: Lee(%d,%d)=%d > %d+%d",
				u, w, tr.LeeDistance(u, w), duv, tr.LeeDistance(v, w))
		}
		// Per-dimension contributions stay in [0, k/2] and sum to the total,
		// even when coordinates are fed in unnormalized.
		sum := 0
		for j := 0; j < d; j++ {
			cd := CyclicDistance(tr.Coord(u, j)-7*k, tr.Coord(v, j)+3*k, k)
			if cd < 0 || cd > k/2 {
				t.Fatalf("cyclic distance %d out of [0,%d]", cd, k/2)
			}
			sum += cd
		}
		if sum != duv {
			t.Fatalf("per-dimension sum %d != Lee distance %d", sum, duv)
		}
	})
}

// FuzzWrapCoord checks that Mod/WrapCoord produce canonical residues for any
// integer input and that NodeAt agrees with them.
func FuzzWrapCoord(f *testing.F) {
	f.Add(0, 2)
	f.Add(-1, 5)
	f.Add(17, 4)
	f.Add(-1000000, 9)
	f.Fuzz(func(t *testing.T, a, kRaw int) {
		k := abs(kRaw)%64 + 2
		m := Mod(a, k)
		if m < 0 || m >= k {
			t.Fatalf("Mod(%d,%d)=%d out of [0,%d)", a, k, m, k)
		}
		if (a-m)%k != 0 {
			t.Fatalf("Mod(%d,%d)=%d not congruent to input", a, k, m)
		}
		if Mod(m, k) != m {
			t.Fatalf("Mod not idempotent at %d mod %d", a, k)
		}
		if Mod(a+k, k) != m || Mod(a-k, k) != m {
			t.Fatalf("Mod(%d,%d) not periodic", a, k)
		}
		tr := New(k, 2)
		if tr.WrapCoord(a) != m {
			t.Fatalf("WrapCoord(%d)=%d, Mod=%d", a, tr.WrapCoord(a), m)
		}
		u := tr.NodeAt([]int{a, a})
		if tr.Coord(u, 0) != m || tr.Coord(u, 1) != m {
			t.Fatalf("NodeAt wraps %d to (%d,%d), want %d", a, tr.Coord(u, 0), tr.Coord(u, 1), m)
		}
	})
}

// FuzzTranslateEdge checks that Torus.TranslateEdge is a bijection on edges
// that moves the source node by Torus.Translate, keeps dimension and
// direction, and is undone by the inverse offset.
func FuzzTranslateEdge(f *testing.F) {
	f.Add(4, 2, 1, 0, 3)
	f.Add(5, 3, -2, 7, 11)
	f.Add(6, 2, 100, -5, 0)
	f.Add(2, 3, 1, 1, 1)
	f.Fuzz(func(t *testing.T, kRaw, dRaw, o0, o1, eRaw int) {
		k := abs(kRaw)%5 + 2
		d := abs(dRaw)%2 + 2
		tr := New(k, d)
		offset := make([]int, d)
		inverse := make([]int, d)
		for j := range offset {
			if j%2 == 0 {
				offset[j] = o0 + j
			} else {
				offset[j] = o1 - j
			}
			inverse[j] = -offset[j]
		}

		e := Edge(abs(eRaw) % tr.Edges())
		img := tr.TranslateEdge(e, offset)
		if got, want := tr.EdgeSource(img), tr.Translate(tr.EdgeSource(e), offset); got != want {
			t.Fatalf("edge image leaves node %d, Translate gives %d", got, want)
		}
		if tr.EdgeDim(img) != tr.EdgeDim(e) || tr.EdgeDir(img) != tr.EdgeDir(e) {
			t.Fatal("translation changed edge dimension or direction")
		}
		if tr.TranslateEdge(img, inverse) != e {
			t.Fatalf("inverse translation does not undo edge %d", e)
		}

		// Bijection over the whole (small) edge set.
		seen := make([]bool, tr.Edges())
		for idx := 0; idx < tr.Edges(); idx++ {
			img := tr.TranslateEdge(Edge(idx), offset)
			if img < 0 || int(img) >= tr.Edges() {
				t.Fatalf("edge image %d out of range", img)
			}
			if seen[img] {
				t.Fatalf("edge image %d hit twice: not a bijection", img)
			}
			seen[img] = true
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
