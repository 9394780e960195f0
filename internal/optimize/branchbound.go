package optimize

import (
	"context"
	"fmt"

	"torusnet/internal/bounds"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// BranchBoundNodeLimit caps k^d for BranchAndBound: past it the
// combination space is hopeless even with pruning (the paper's largest
// torus, T³₈, sits exactly at the limit; auto-strategy callers fall back to
// annealing well before it).
const BranchBoundNodeLimit = 512

// DefaultMaxVisited is the branch-and-bound expansion budget when
// Config.MaxVisited is zero. Expansions are cheap (one level copy and a
// handful of routed pairs each), so the default buys an exhaustive search
// of T²₈-sized instances while bounding the worst case to seconds.
const DefaultMaxVisited = 50_000_000

// bnbCheckEvery is how many node expansions pass between context and
// budget checks.
const bnbCheckEvery = 4096

// bnb is the search state of one BranchAndBound run. Edge loads are kept
// per depth: levels[m] is the load of the first m chosen nodes, so
// descending writes a fresh level and backtracking just moves back one
// depth. Reverts are exact and nothing is allocated per expansion. Loads
// only grow with depth, so each level's maximum is the previous one's
// raised by the edges the new node's pairs touch; no level is scanned.
type bnb struct {
	t *torus.Torus
	r *routing.PairRouter

	levels  [][]float64  // levels[m]: per-edge load of chosen[:m]
	maxes   []float64    // maxes[m]: the largest entry of levels[m]
	touched []torus.Edge // edges the last addNode routed onto, reused
	chosen  []torus.Node
	best    []torus.Node
	bestE   float64 // incumbent energy (strict prune threshold)
	floor   float64 // placement-independent lower bound
	done    bool    // incumbent met the floor: provably optimal, stop

	visited, pruned int64
	budget          int64
	every           int64
	progress        func(Progress)

	err error // ctx error once observed; unwinds the recursion
}

// newBnb returns a search state for placements of size nodes on t under
// alg, with an empty chosen set and every level allocated up front.
func newBnb(t *torus.Torus, alg routing.Algorithm, size int) *bnb {
	return &bnb{
		t:      t,
		r:      routing.NewPairRouter(t, alg),
		levels: newLoadVectors(size+1, t.Edges()),
		maxes:  make([]float64, size+1),
		chosen: make([]torus.Node, 0, size),
	}
}

// BranchAndBound exhaustively searches all size-subsets of t's nodes for
// the minimum-E_max placement under alg, pruning with the monotonicity of
// complete-exchange loads: adding a processor adds pair traffic and never
// lowers any edge's load, so a partial placement whose maximum edge load
// already reaches the incumbent cannot lead to a strict improvement. For
// translation-equivariant algorithms the space is reduced by fixing node 0
// into every subset (any placement translates onto one containing node 0
// with identical E_max). The incumbent is seeded from Config.Start when
// given, else from the Lee-sphere seed — and additionally from the linear
// placement when cfg.Size = k^{d-1}, whose Theorem 2 E_max is the
// construction the search is trying to beat. The search stops early when
// the incumbent meets the Blaum floor |P|/(2d) (provably optimal), and
// gives up with Proven=false when MaxVisited expansions are exhausted.
//
// On a cancelled context the incumbent found so far is returned together
// with ctx's error.
func BranchAndBound(ctx context.Context, t *torus.Torus, alg routing.Algorithm, cfg Config) (*Result, error) {
	if cfg.Size < 2 || cfg.Size > t.Nodes() {
		return nil, fmt.Errorf("optimize: placement size %d out of range [2, %d]", cfg.Size, t.Nodes())
	}
	if t.Nodes() > BranchBoundNodeLimit {
		return nil, fmt.Errorf("optimize: torus T^%d_%d has %d nodes, exceeding the branch-and-bound limit of %d",
			t.D(), t.K(), t.Nodes(), BranchBoundNodeLimit)
	}
	_, sp := obs.Start(ctx, "optimize.bnb")
	defer sp.End()
	sp.SetAttrInt("size", int64(cfg.Size))
	sp.SetAttrInt("nodes", int64(t.Nodes()))

	// Seed the incumbent: the tightest starting bound prunes hardest.
	seed := cfg.Start
	if len(seed) == 0 {
		seed = leeSeedNodes(t, cfg.Size)
	} else if len(seed) != cfg.Size {
		return nil, fmt.Errorf("optimize: Start has %d nodes, want Size = %d", len(seed), cfg.Size)
	}
	seedE := energy(t, seed, alg, cfg.Workers)
	incumbent, incumbentE := append([]torus.Node(nil), seed...), seedE
	if lin, err := (placement.Linear{C: 0}).Build(t); err == nil && lin.Size() == cfg.Size {
		if e := load.ComputeCtx(ctx, lin, alg, load.Options{Workers: cfg.Workers}).Max; e < incumbentE {
			incumbent, incumbentE = append([]torus.Node(nil), lin.Nodes()...), e
		}
	}

	budget := cfg.MaxVisited
	if budget <= 0 {
		budget = DefaultMaxVisited
	}
	every := int64(cfg.ProgressEvery)
	if every <= 0 {
		every = 65536
	}
	b := newBnb(t, alg, cfg.Size)
	b.best, b.bestE = incumbent, incumbentE
	b.floor = bounds.Blaum(cfg.Size, t.D())
	b.budget, b.every, b.progress = budget, every, cfg.Progress

	complete := true
	if b.bestE <= b.floor+searchEps {
		// The seed already meets the placement-independent floor; nothing
		// to search.
		b.done = true
	} else {
		if routing.IsTranslationEquivariant(alg) {
			// Every subset translates onto one containing node 0.
			b.chosen = append(b.chosen, 0)
		}
		complete = b.descend(ctx, cfg.Size)
	}
	proven := b.err == nil && (complete || b.done)
	sp.SetAttrInt("visited", b.visited)
	sp.SetAttrInt("pruned", b.pruned)
	sp.SetAttrBool("proven", proven)

	res := &Result{
		Best: placement.New(t, b.best, "branch-and-bound"),
		// Recompute through the load engine so the reported number is
		// bit-identical to load.Compute on Best.
		BestEMax:  energy(t, b.best, alg, cfg.Workers),
		StartEMax: seedE,
		Strategy:  StrategyBranchBound,
		Proven:    proven,
		Visited:   b.visited,
		Pruned:    b.pruned,
	}
	return finish(res), b.err
}

// descend tries every admissible next node after the last chosen one,
// recursing until size nodes are chosen. It reports false when the
// enumeration was cut off (budget exhausted or context cancelled) and is
// therefore incomplete.
func (b *bnb) descend(ctx context.Context, size int) bool {
	minNode := 0
	if n := len(b.chosen); n > 0 {
		minNode = int(b.chosen[n-1]) + 1
	}
	remaining := size - len(b.chosen)
	for v := minNode; v <= b.t.Nodes()-remaining; v++ {
		if b.done {
			return true
		}
		b.visited++
		if b.visited%bnbCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				b.err = err
				return false
			}
			if b.visited > b.budget {
				return false
			}
		}
		if b.progress != nil && b.visited%b.every == 0 {
			b.progress(Progress{Strategy: StrategyBranchBound, Visited: b.visited, Pruned: b.pruned, BestEMax: b.bestE})
		}
		newMax := b.addNode(torus.Node(v))
		ok := true
		switch {
		case newMax >= b.bestE-searchEps:
			// Monotone bound: no completion of this prefix can strictly
			// beat the incumbent.
			b.pruned++
		case len(b.chosen) == size:
			b.bestE = newMax
			copy(b.best, b.chosen)
			if b.bestE <= b.floor+searchEps {
				b.done = true
			}
		default:
			ok = b.descend(ctx, size)
		}
		b.chosen = b.chosen[:len(b.chosen)-1]
		if !ok {
			return false
		}
	}
	return true
}

// addNode appends v to the partial placement: the next level becomes the
// current one plus the complete-exchange load of every (v, u) pair in both
// directions. It returns the new maximum edge load.
func (b *bnb) addNode(v torus.Node) float64 {
	m := len(b.chosen)
	next := b.levels[m+1]
	copy(next, b.levels[m])
	touched := b.touched[:0]
	for _, u := range b.chosen {
		touched = b.r.RouteTracked(u, v, next, touched)
		touched = b.r.RouteTracked(v, u, next, touched)
	}
	b.touched = touched
	mx := b.maxes[m]
	for _, e := range touched {
		mx = max(mx, next[e])
	}
	b.maxes[m+1] = mx
	b.chosen = append(b.chosen, v)
	return mx
}
