package graph

import "torusnet/internal/torus"

// The digraph oracle: a small structure-agnostic digraph with BFS,
// shortest-path counting and connectivity, built independently of the
// torus package's distance code so the tests in this package can
// cross-check torus distances and minimal-path counts against it. Nothing
// outside these tests uses it, so it lives in test files only.

// Digraph is a directed graph over nodes 0..N-1 with parallel edges
// permitted (a k=2 torus ring has genuine parallel links).
type Digraph struct {
	n   int
	adj [][]int32 // adjacency lists
}

// New creates a digraph with n nodes and no edges.
func New(n int) *Digraph {
	return &Digraph{n: n, adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// AddEdge inserts a directed edge u -> v.
func (g *Digraph) AddEdge(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
}

// OutDegree returns the number of edges leaving u.
func (g *Digraph) OutDegree(u int) int { return len(g.adj[u]) }

// Edges returns the total number of directed edges.
func (g *Digraph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// ForEachSuccessor calls fn for every successor of u (with multiplicity).
func (g *Digraph) ForEachSuccessor(u int, fn func(v int)) {
	for _, v := range g.adj[u] {
		fn(int(v))
	}
}

// BFS returns the hop distance from src to every node; unreachable nodes
// get -1.
func (g *Digraph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ShortestPathCounts returns, for every node v, the number of distinct
// shortest paths from src to v (counting parallel edges separately). Counts
// are float64 to avoid overflow on dense graphs.
func (g *Digraph) ShortestPathCounts(src int) (dist []int, count []float64) {
	dist = g.BFS(src)
	count = make([]float64, g.n)
	count[src] = 1
	// Process nodes in nondecreasing distance order.
	order := make([]int, 0, g.n)
	for v, dv := range dist {
		if dv >= 0 {
			order = append(order, v)
		}
	}
	// Counting sort by distance.
	maxD := 0
	for _, v := range order {
		if dist[v] > maxD {
			maxD = dist[v]
		}
	}
	buckets := make([][]int, maxD+1)
	for _, v := range order {
		buckets[dist[v]] = append(buckets[dist[v]], v)
	}
	for dv := 0; dv <= maxD; dv++ {
		for _, u := range buckets[dv] {
			for _, v := range g.adj[u] {
				if dist[v] == dv+1 {
					count[v] += count[u]
				}
			}
		}
	}
	return dist, count
}

// Reachable reports whether dst is reachable from src.
func (g *Digraph) Reachable(src, dst int) bool {
	if src == dst {
		return true
	}
	return g.BFS(src)[dst] >= 0
}

// StronglyConnected reports whether the whole graph is strongly connected.
func (g *Digraph) StronglyConnected() bool {
	if g.n == 0 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	rev := g.Reverse()
	for _, d := range rev.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Reverse returns the graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	out := New(g.n)
	for u, a := range g.adj {
		for _, v := range a {
			out.AddEdge(int(v), u)
		}
	}
	return out
}

// FromTorus builds the digraph of a torus, one graph edge per directed
// torus link, in torus edge-index order (graph edge i corresponds to torus
// edge i in iteration order of adjacency lists built here).
func FromTorus(t *torus.Torus) *Digraph {
	g := New(t.Nodes())
	t.ForEachNode(func(u torus.Node) {
		for j := 0; j < t.D(); j++ {
			g.AddEdge(int(u), int(t.Step(u, j, torus.Plus)))
			g.AddEdge(int(u), int(t.Step(u, j, torus.Minus)))
		}
	})
	return g
}

// FromTorusWithout builds the torus digraph minus a set of failed directed
// links, for fault analysis.
func FromTorusWithout(t *torus.Torus, failed map[torus.Edge]bool) *Digraph {
	g := New(t.Nodes())
	t.ForEachEdge(func(e torus.Edge) {
		if !failed[e] {
			g.AddEdge(int(t.EdgeSource(e)), int(t.EdgeTarget(e)))
		}
	})
	return g
}
