package torusnet

import (
	"context"

	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/bsp"
	"torusnet/internal/cluster"
	"torusnet/internal/core"
	"torusnet/internal/cover"
	"torusnet/internal/failpoint"
	"torusnet/internal/faults"
	"torusnet/internal/lee"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/optimize"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/schedule"
	"torusnet/internal/service"
	"torusnet/internal/simnet"
	"torusnet/internal/sweep"
	"torusnet/internal/torus"
	"torusnet/internal/wormhole"
)

// Topology types.
type (
	// Torus is the d-dimensional k-torus T^d_k (Definition 1).
	Torus = torus.Torus
	// Node indexes a torus vertex.
	Node = torus.Node
	// Edge indexes a directed torus link.
	Edge = torus.Edge
	// Direction is a travel direction (+/−) along a dimension.
	Direction = torus.Direction
	// Subtorus identifies a principal subtorus.
	Subtorus = torus.Subtorus
)

// Direction constants.
const (
	Plus  = torus.Plus
	Minus = torus.Minus
)

// NewTorus constructs T^d_k. It panics for invalid parameters; use
// CheckTorus to validate first.
func NewTorus(k, d int) *Torus { return torus.New(k, d) }

// CheckTorus validates torus parameters without constructing.
func CheckTorus(k, d int) error { return torus.Check(k, d) }

// CyclicDistance is the Definition 6 distance between residues mod k.
func CyclicDistance(i, j, k int) int { return torus.CyclicDistance(i, j, k) }

// MaxNodes bounds the node count of any torus this package will build.
const MaxNodes = torus.MaxNodes

// Mod returns a normalized to [0, k): the canonical residue helper for
// torus coordinates, correct for negative a (unlike Go's % operator).
func Mod(a, k int) int { return torus.Mod(a, k) }

// Volume returns k^d, refusing values beyond MaxNodes instead of silently
// overflowing int.
func Volume(k, d int) (int, error) { return torus.Volume(k, d) }

// Placement types and specs.
type (
	// Placement is a set of processor nodes on one torus (Definition 2).
	Placement = placement.Placement
	// PlacementSpec generates P_{d,k} for any torus.
	PlacementSpec = placement.Spec
	// Linear is the Definition 10 linear placement Σ c_i·p_i ≡ C (mod k).
	Linear = placement.Linear
	// MultipleLinear is the union of t consecutive linear placements (§5).
	MultipleLinear = placement.MultipleLinear
	// ShiftedDiagonal is Blaum et al.'s d=3 placement, a linear special case.
	ShiftedDiagonal = placement.ShiftedDiagonal
	// Full populates every node (the classical torus).
	Full = placement.Full
	// Random places processors uniformly at random.
	Random = placement.Random
	// Explicit wraps a fixed coordinate list.
	Explicit = placement.Explicit
	// LayerCluster is uniform along exactly one dimension (Theorem 1's
	// weakest premise), clustered in the others.
	LayerCluster = placement.LayerCluster
)

// NewPlacement builds a placement from explicit nodes.
func NewPlacement(t *Torus, nodes []Node, name string) *Placement {
	return placement.New(t, nodes, name)
}

// Routing algorithms.
type (
	// RoutingAlgorithm specifies shortest-path sets C^A_{p→q} (Definition 3).
	RoutingAlgorithm = routing.Algorithm
	// Path is one shortest path.
	Path = routing.Path
	// ODR is restricted Ordered Dimensional Routing (§6).
	ODR = routing.ODR
	// ODRMulti is ODR with both directions allowed on ties.
	ODRMulti = routing.ODRMulti
	// UDR is Unordered Dimensional Routing (§7).
	UDR = routing.UDR
	// UDRMulti is UDR with both directions allowed on ties.
	UDRMulti = routing.UDRMulti
	// FAR is fully adaptive minimal routing over all shortest paths.
	FAR = routing.FAR
	// ODROrder is ODR with a caller-chosen dimension correction order.
	ODROrder = routing.ODROrder
	// MeshODR routes on the embedded array A^d_k, never using wrap links.
	MeshODR = routing.MeshODR
)

// Load computation.
type (
	// LoadResult holds per-edge expected loads and E_max (Definitions 4/5).
	LoadResult = load.Result
	// LoadOptions configures the engine (worker count, fast-path mode,
	// cross-checking).
	LoadOptions = load.Options
	// FastPathMode selects how the translation-symmetry fast path
	// dispatches (LoadOptions.FastPath).
	FastPathMode = load.FastPathMode
	// AnalyticMode selects how the closed-form analytic tier dispatches
	// (LoadOptions.Analytic).
	AnalyticMode = load.AnalyticMode
	// AnalyticEval is one closed-form Theorem 2–5 answer: the E_max value
	// (or upper bound), exactness, and the theorem it comes from.
	AnalyticEval = load.AnalyticEval
	// LinearClass is the recognizer's classification of a placement
	// against the paper's linear families (Placement.LinearClass).
	LinearClass = placement.LinearClass
	// ExactLoadResult holds loads as exact rationals.
	ExactLoadResult = load.ExactResult
	// MonteCarloResult holds empirical load estimates.
	MonteCarloResult = load.MonteCarloResult
)

// Fast-path dispatch modes and the engine labels LoadResult.Engine reports.
const (
	// FastPathAuto uses the symmetry engine whenever the placement has a
	// non-trivial translation stabilizer and the algorithm is
	// translation-equivariant (the default).
	FastPathAuto = load.FastPathAuto
	// FastPathOff always runs the generic pair loop.
	FastPathOff = load.FastPathOff

	// AnalyticOff never answers from the closed forms (the default: the
	// analytic tier is opt-in because its results carry no per-edge loads).
	AnalyticOff = load.AnalyticOff
	// AnalyticAuto answers from Theorem 2 on its equality cells only.
	AnalyticAuto = load.AnalyticAuto
	// AnalyticForce additionally serves the Theorem 3–5 upper bounds,
	// with LoadResult.Exact == false.
	AnalyticForce = load.AnalyticForce

	// EngineGeneric marks results from the O(|P|²) pair loop.
	EngineGeneric = load.EngineGeneric
	// EngineSymmetry marks results from the translation fast path.
	EngineSymmetry = load.EngineSymmetry
	// EngineMonteCarlo marks empirical estimates (degraded torusd answers).
	EngineMonteCarlo = load.EngineMonteCarlo
	// EngineAnalytic marks closed-form Theorem 2–5 answers (no load vector).
	EngineAnalytic = load.EngineAnalytic
)

// MaxEngineDivergence reports the largest absolute per-edge difference
// between two load results, for cross-checking engines against each other.
func MaxEngineDivergence(a, b *LoadResult) float64 {
	return load.MaxEngineDivergence(a, b)
}

// AnalyticEMax maps a recognized placement shape (t consecutive residue
// classes on T^d_k) and a routing algorithm name to the paper's Theorem 2–5
// closed forms; exactOnly restricts the map to the equality cells. The
// second return is false when no theorem applies.
func AnalyticEMax(k, d, t int, algName string, exactOnly bool) (AnalyticEval, bool) {
	return load.AnalyticEMax(k, d, t, algName, exactOnly)
}

// IsTranslationEquivariant reports whether a routing algorithm declares
// that its paths depend only on coordinate deltas, the soundness premise
// of the symmetry fast path.
func IsTranslationEquivariant(a RoutingAlgorithm) bool {
	return routing.IsTranslationEquivariant(a)
}

// ComputeLoad evaluates the exact expected load of every directed edge
// under one complete exchange.
func ComputeLoad(p *Placement, a RoutingAlgorithm, opts LoadOptions) *LoadResult {
	return load.Compute(p, a, opts)
}

// ComputeLoadCtx is ComputeLoad with observability threaded through ctx:
// when the context carries an active trace (see StartSpan), the engine
// dispatch, per-engine stages, and merge record spans and the worker
// goroutines carry pprof labels. With no active trace it is
// allocation-identical to ComputeLoad.
func ComputeLoadCtx(ctx context.Context, p *Placement, a RoutingAlgorithm, opts LoadOptions) *LoadResult {
	return load.ComputeCtx(ctx, p, a, opts)
}

// ComputeLoadExact evaluates loads with big.Rat arithmetic (small tori).
func ComputeLoadExact(p *Placement, a RoutingAlgorithm) (*ExactLoadResult, error) {
	return load.ComputeExact(p, a)
}

// MonteCarloLoad estimates loads empirically over repeated exchanges.
func MonteCarloLoad(p *Placement, a RoutingAlgorithm, rounds int, seed int64, opts LoadOptions) *MonteCarloResult {
	return load.MonteCarlo(p, a, rounds, seed, opts)
}

// Traffic patterns beyond complete exchange.
type (
	// TrafficPattern generates a traffic matrix over a placement.
	TrafficPattern = load.Pattern
	// PatternCompleteExchange is all-to-all personalized communication.
	PatternCompleteExchange = load.CompleteExchange
	// PatternTranspose is coordinate-reversal (matrix transposition, d=2).
	PatternTranspose = load.Transpose
	// PatternShift is a fixed-offset cyclic shift.
	PatternShift = load.Shift
	// PatternHotSpot funnels every processor into one destination.
	PatternHotSpot = load.HotSpot
	// PatternRandomPairs samples an irregular traffic matrix.
	PatternRandomPairs = load.RandomPairs
)

// ComputePatternLoad evaluates a traffic pattern's exact expected loads.
func ComputePatternLoad(p *Placement, pat TrafficPattern, a RoutingAlgorithm, opts LoadOptions) *LoadResult {
	return load.ComputePattern(p, pat, a, opts)
}

// Resource-placement metrics (covering/packing).
type (
	// CoverReport holds covering radius, packing distance, mean distance.
	CoverReport = cover.Report
)

// AnalyzeCoverage computes resource-placement metrics.
func AnalyzeCoverage(p *Placement) CoverReport { return cover.Analyze(p) }

// Degraded-network load.
type (
	// DegradedLoad is the post-failure load picture.
	DegradedLoad = faults.DegradedResult
)

// LoadWithFailures recomputes the exchange load on a mutilated torus:
// traffic redistributes over surviving routes, falling back to BFS detours.
func LoadWithFailures(p *Placement, a RoutingAlgorithm, failed map[Edge]bool) *DegradedLoad {
	return faults.LoadWithFailures(p, a, failed)
}

// RandomFailures draws n distinct failed links deterministically.
func RandomFailures(t *Torus, n int, seed int64) map[Edge]bool {
	return faults.RandomFailures(t, n, seed)
}

// Lower bounds (package bounds).
var (
	// BlaumBound is Eq. 1: (|P|−1)/2d.
	BlaumBound = bounds.Blaum
	// SeparatorBound is Lemma 1: 2|S|(|P|−|S|)/|∂S|.
	SeparatorBound = bounds.Separator
	// BisectionBound is Eq. 8.
	BisectionBound = bounds.Bisection
	// ImprovedBound is the §4 bound c²k^{d−1}/8.
	ImprovedBound = bounds.Improved
	// MaxPlacementSize is the Eq. 9 ceiling 12·d·c1·k^{d−1}.
	MaxPlacementSize = bounds.MaxPlacementSize
)

// Bisection.
type (
	// Cut is a partition of the torus with respect to a placement.
	Cut = bisect.Cut
)

// DimensionCut is the Theorem 1 construction (width 4k^{d−1}).
func DimensionCut(p *Placement, dim int) *Cut { return bisect.DimensionCut(p, dim) }

// SweepBisect is the appendix hyperplane-sweep construction (balanced for
// any placement, width ≤ 6dk^{d−1}).
func SweepBisect(p *Placement) *Cut { return bisect.Sweep(p) }

// BestSweepBisect scans every balanced hyperplane position and returns the
// minimum-width sweep cut.
func BestSweepBisect(p *Placement) *Cut { return bisect.BestSweep(p) }

// Analysis.
type (
	// Report is the full optimality analysis of a placement + algorithm.
	Report = core.Report
	// FaultReport aggregates §7 fault-tolerance metrics.
	FaultReport = faults.Report
)

// Analyze runs loads, bounds, bisections, and optimality ratios in one call.
func Analyze(p *Placement, a RoutingAlgorithm, workers int) *Report {
	return core.Analyze(p, a, workers)
}

// FullReport bundles load/bounds with faults, coverage, and scheduling.
type FullReport = core.FullReport

// AnalyzeFull runs every analysis pipeline on one placement.
func AnalyzeFull(p *Placement, a RoutingAlgorithm, workers int) *FullReport {
	return core.AnalyzeFull(p, a, workers)
}

// ComputeValiantLoad evaluates Valiant two-phase randomized routing.
func ComputeValiantLoad(p *Placement, pat TrafficPattern, a RoutingAlgorithm, opts LoadOptions) *LoadResult {
	return load.ComputeValiant(p, pat, a, opts)
}

// AnalyzeFaults computes route multiplicity and critical-link statistics.
func AnalyzeFaults(p *Placement, a RoutingAlgorithm, workers int) *FaultReport {
	return faults.Analyze(p, a, workers)
}

// EdgeDisjointRoutes greedily selects pairwise edge-disjoint paths from
// C^A_{p→q}; with r routes the pair tolerates any r−1 link failures.
func EdgeDisjointRoutes(a RoutingAlgorithm, t *Torus, p, q Node, maxPaths int) []Path {
	return routing.EdgeDisjointRoutes(a, t, p, q, maxPaths)
}

// RandomFailureBrokenPairs fails `failures` random links and counts the
// ordered processor pairs left without any route under the algorithm.
func RandomFailureBrokenPairs(p *Placement, a RoutingAlgorithm, failures int, seed int64) int {
	return faults.RandomFailureTrial(p, a, failures, seed)
}

// Simulation.
type (
	// SimConfig parameterizes a cycle-accurate simulation run.
	SimConfig = simnet.Config
	// SimStats reports a completed complete exchange.
	SimStats = simnet.Stats
)

// Simulate runs one complete exchange on the store-and-forward simulator.
func Simulate(cfg SimConfig) *SimStats { return simnet.Run(cfg) }

// Open-loop (rate-driven) simulation.
type (
	// OpenLoopConfig parameterizes a rate-driven traffic run.
	OpenLoopConfig = simnet.OpenLoopConfig
	// OpenLoopStats is the steady-state measurement.
	OpenLoopStats = simnet.OpenLoopStats
)

// SimulateOpenLoop measures throughput and latency under Bernoulli
// injection at a fixed per-processor rate (the load-latency curve).
func SimulateOpenLoop(cfg OpenLoopConfig) *OpenLoopStats { return simnet.RunOpenLoop(cfg) }

// Wormhole switching (flit-level, virtual channels, dateline scheme).
type (
	// WormholeConfig parameterizes a flit-level simulation run.
	WormholeConfig = wormhole.Config
	// WormholeStats reports a wormhole complete exchange.
	WormholeStats = wormhole.Stats
)

// SimulateWormhole runs one complete exchange under wormhole switching.
func SimulateWormhole(cfg WormholeConfig) *WormholeStats { return wormhole.Run(cfg) }

// Offline conflict-free scheduling.
type (
	// Schedule is a conflict-free time assignment for routed messages.
	Schedule = schedule.Result
	// ScheduleOrder selects the greedy insertion order.
	ScheduleOrder = schedule.Order
)

// Schedule insertion orders.
const (
	ScheduleByIndex      = schedule.ByIndex
	ScheduleLongestFirst = schedule.LongestFirst
)

// ScheduleExchange builds and greedily schedules one complete exchange.
func ScheduleExchange(p *Placement, a RoutingAlgorithm, seed int64, order ScheduleOrder) *Schedule {
	return schedule.CompleteExchange(p, a, seed, order)
}

// BSP cost model.
type (
	// BSPParams are the fitted gap/latency of a placement.
	BSPParams = bsp.Params
	// BSPSample is one measured superstep.
	BSPSample = bsp.Sample
)

// EstimateBSP fits cycles(h) = g·h + L over simulated h-relations.
func EstimateBSP(p *Placement, a RoutingAlgorithm, hmax int, seed int64) (BSPParams, []BSPSample) {
	return bsp.Estimate(p, a, hmax, seed)
}

// Placement search: three strategies behind one Result shape — simulated
// annealing (any torus), exhaustive branch-and-bound (small tori, proves
// optimality), and constructive Lee-sphere seeding. Every result is stamped
// with the best §4 lower bound and its gap to it; see OPTIMIZE.md.
type (
	// AnnealConfig parameterizes the placement searches (size, budget, seed).
	AnnealConfig = optimize.Config
	// AnnealResult reports a search outcome with lower-bound provenance.
	AnnealResult = optimize.Result
	// SearchProgress is the periodic callback payload of a running search.
	SearchProgress = optimize.Progress
)

// Search strategy names, as carried in AnnealResult.Strategy and accepted
// by the /v1/optimize job API.
const (
	StrategyAnneal      = optimize.StrategyAnneal
	StrategyBranchBound = optimize.StrategyBranchBound
	StrategyLeeSphere   = optimize.StrategyLeeSphere
)

// Branch-and-bound guardrails: the node-count ceiling for exhaustive
// search, and the default visited-placements budget.
const (
	BranchBoundNodeLimit  = optimize.BranchBoundNodeLimit
	BranchBoundMaxVisited = optimize.DefaultMaxVisited
)

// AnnealPlacement searches for a low-E_max placement of fixed size.
func AnnealPlacement(t *Torus, a RoutingAlgorithm, cfg AnnealConfig) *AnnealResult {
	return optimize.Anneal(t, a, cfg)
}

// AnnealPlacementCtx is AnnealPlacement with cancellation: on ctx
// cancellation it returns the best placement found so far alongside the
// context error.
func AnnealPlacementCtx(ctx context.Context, t *Torus, a RoutingAlgorithm, cfg AnnealConfig) (*AnnealResult, error) {
	return optimize.AnnealCtx(ctx, t, a, cfg)
}

// BranchBoundPlacement exhaustively searches all size-|P| placements on a
// small torus (≤ BranchBoundNodeLimit nodes), pruning by monotone partial
// loads; Result.Proven reports whether the optimum is certified.
func BranchBoundPlacement(ctx context.Context, t *Torus, a RoutingAlgorithm, cfg AnnealConfig) (*AnnealResult, error) {
	return optimize.BranchAndBound(ctx, t, a, cfg)
}

// LeeSeedPlacement builds a constructive Lee-sphere-tiling placement by
// greedy farthest-point sampling — a deterministic seed for the other
// strategies, and a decent placement on its own.
func LeeSeedPlacement(t *Torus, size int, a RoutingAlgorithm, workers int) (*AnnealResult, error) {
	return optimize.LeeSeed(t, size, a, workers)
}

// LeeTilingRadius is the largest radius r such that size disjoint Lee
// balls of radius r fit in the torus — the spacing target LeeSeedPlacement
// aims for.
func LeeTilingRadius(t *Torus, size int) int { return optimize.TilingRadius(t, size) }

// Lee-distance analytics (closed forms used as analytic anchors).
var (
	// TorusMeanDistance is the mean Lee distance of T^d_k.
	TorusMeanDistance = lee.TorusMeanDistance
	// TorusDiameter is d·⌊k/2⌋.
	TorusDiameter = lee.Diameter
	// LeeSphereSize is the surface size of a Lee sphere.
	LeeSphereSize = lee.SphereSize
	// LinearExchangeTotal is Σ Lee(p,q) over a linear placement's pairs.
	LinearExchangeTotal = lee.LinearExchangeTotal
)

// Experiments.
type (
	// Experiment is one registered reproduction experiment (E1–E19).
	Experiment = sweep.Experiment
	// ExperimentTable is an experiment's rendered output.
	ExperimentTable = sweep.Table
	// ExperimentScale selects quick or full parameter ranges.
	ExperimentScale = sweep.Scale
)

// Experiment scales.
const (
	QuickScale = sweep.Quick
	FullScale  = sweep.Full
)

// Experiments returns the registered E1–E19 experiments in order.
func Experiments() []Experiment { return sweep.All() }

// ExperimentByID finds one experiment by its "E<n>" id.
func ExperimentByID(id string) (Experiment, bool) { return sweep.ByID(id) }

// Analysis service (torusd): a concurrent HTTP JSON front end over Analyze,
// the bounds/bisect packages, and the experiment registry, with result
// caching, request coalescing, and expvar metrics.
type (
	// Service is the torusd HTTP server (cache + coalescing + worker pool).
	Service = service.Server
	// ServiceConfig sizes the service (workers, queue, cache, deadlines).
	ServiceConfig = service.Config
	// ServiceClient is the typed HTTP client for a running torusd.
	ServiceClient = service.Client
	// ServiceAPIError is a non-2xx torusd reply surfaced by ServiceClient.
	ServiceAPIError = service.APIError
	// AnalyzeRequest is the POST /v1/analyze body.
	AnalyzeRequest = service.AnalyzeRequest
	// BoundsRequest is the POST /v1/bounds body.
	BoundsRequest = service.BoundsRequest
	// BisectRequest is the POST /v1/bisect body.
	BisectRequest = service.BisectRequest
	// ExperimentRequest is the POST /v1/experiments/{id} body.
	ExperimentRequest = service.ExperimentRequest
	// AnalyzeResponse is the /v1/analyze reply (Report over the wire).
	AnalyzeResponse = service.AnalyzeResponse
	// BoundsResponse is the /v1/bounds reply.
	BoundsResponse = service.BoundsResponse
	// BisectResponse is the /v1/bisect reply.
	BisectResponse = service.BisectResponse
	// CutSummary is the wire form of a bisection cut.
	CutSummary = service.CutSummary
	// ExperimentInfo is one GET /v1/experiments entry.
	ExperimentInfo = service.ExperimentInfo
	// ExperimentRunResponse is the /v1/experiments/{id} reply.
	ExperimentRunResponse = service.ExperimentRunResponse
	// HealthResponse is the GET /healthz reply.
	HealthResponse = service.HealthResponse
	// ReadyResponse is the GET /readyz reply (readiness, distinct from
	// /healthz liveness; in cluster mode it reports ring join state).
	ReadyResponse = service.ReadyResponse
	// ErrorResponse is the error envelope every non-2xx reply uses.
	ErrorResponse = service.ErrorResponse
	// OptimizeRequest is the POST /v1/optimize body (async search submit).
	OptimizeRequest = service.OptimizeRequest
	// OptimizeResponse is a finished search's result payload.
	OptimizeResponse = service.OptimizeResponse
	// JobAccepted is the 202 body of POST /v1/optimize (job id + poll URL).
	JobAccepted = service.JobAccepted
	// JobSnapshot is the GET /v1/jobs/{id} reply: state, progress, and —
	// once terminal — the result or error.
	JobSnapshot = service.JobSnapshot
)

// Async search job states, as reported in JobSnapshot.State.
const (
	JobStateRunning   = service.JobStateRunning
	JobStateDone      = service.JobStateDone
	JobStateFailed    = service.JobStateFailed
	JobStateCancelled = service.JobStateCancelled
)

// ServiceMaxNodes is the default per-request torus size ceiling of torusd.
const ServiceMaxNodes = service.DefaultMaxNodes

// NewService constructs a torusd server; serve it with Service.Serve or
// mount Service.Handler on an existing mux.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceClient returns a typed client for a torusd base URL. It is
// single-attempt: every transport or HTTP error surfaces immediately. Use
// NewResilientServiceClient for retries, hedging, and a circuit breaker.
func NewServiceClient(baseURL string) *ServiceClient { return service.NewClient(baseURL) }

// ClientResilienceConfig tunes the resilient client's retry policy:
// attempt cap, jittered exponential backoff, retry budget, request
// hedging, and the per-endpoint circuit breaker. The zero value selects
// the documented defaults.
type ClientResilienceConfig = service.ResilienceConfig

// ErrServiceCircuitOpen is returned (wrapped) by a resilient client when
// an endpoint's circuit breaker is open and the call was not attempted.
var ErrServiceCircuitOpen = service.ErrCircuitOpen

// NewResilientServiceClient returns a torusd client that retries transient
// failures with capped jittered backoff (honoring Retry-After), hedges
// slow requests, and trips a per-endpoint circuit breaker. Degraded
// server answers are marked by AnalyzeResponse.Degraded with a Monte
// Carlo ErrorBound.
func NewResilientServiceClient(baseURL string, cfg ClientResilienceConfig) *ServiceClient {
	return service.NewResilientClient(baseURL, cfg)
}

// Sharded cluster (package cluster): consistent-hash routing of canonical
// cache keys across a static torusd membership with groupcache-style peer
// fill — on a local miss for a key homed elsewhere, the answer is fetched
// from the home peer (one hop at most, guarded by PeerHopHeader) before
// falling back to local compute, so a cluster computes each answer once
// globally. See DESIGN.md §12 and "Running a cluster" in README.md.
type (
	// Cluster is one node's view of the shard ring plus per-peer health.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes a Cluster (self URL, membership, ring
	// replicas, per-peer transport dialer, health thresholds).
	ClusterConfig = cluster.Config
	// ClusterPeerTransport is the wire surface the cluster needs to one
	// peer; NewPeerFillServiceClient returns an implementation.
	ClusterPeerTransport = cluster.PeerTransport
	// ClusterStatus is a point-in-time ring/health snapshot.
	ClusterStatus = cluster.Status
	// ClusterPeerStatus is one member's row in a ClusterStatus.
	ClusterPeerStatus = cluster.PeerStatus
	// HashRing is the deterministic consistent-hash ring under a Cluster.
	HashRing = cluster.Ring
	// ClusterMembership is a Cluster's runtime membership controller:
	// Join/Leave/Set swap the ring at a new epoch without a restart.
	ClusterMembership = cluster.Membership
	// ClusterReplicaPut is the wire body of a write-through replica put
	// (canonical request plus the exact result bytes to store).
	ClusterReplicaPut = cluster.ReplicaPut
)

// DefaultRingReplicas is the virtual-node count per peer used when a ring
// is built with replicas <= 0.
const DefaultRingReplicas = cluster.DefaultReplicas

// DefaultClusterReplication is the owners-per-key factor used when a
// cluster is built with Replication <= 0: each key has a primary plus one
// backup that receives write-through replicas of exact results.
const DefaultClusterReplication = cluster.DefaultReplication

// ClusterReplicaPath is the peer-to-peer endpoint replica puts are POSTed
// to; torusd mounts it only in cluster mode.
const ClusterReplicaPath = cluster.ReplicaPath

// PeerHopHeader marks a request as a peer fill hop; a torusd serving a
// request that carries it never fills onward (the cluster loop guard).
const PeerHopHeader = service.PeerHopHeader

// ReplicaHeader marks a POST to ClusterReplicaPath as a peer's
// write-through replica put; the receiver stores the result under the
// server-derived key without re-filling.
const ReplicaHeader = service.ReplicaHeader

// NewCluster builds one node's cluster view; pass it to
// ServiceConfig.Cluster to enable sharded peer fill on that server.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewHashRing builds a deterministic consistent-hash ring over peer base
// URLs with the given virtual-node count per peer (<= 0 selects
// DefaultRingReplicas).
func NewHashRing(peers []string, replicas int) *HashRing { return cluster.NewRing(peers, replicas) }

// NewPeerFillServiceClient returns the resilient client a cluster node
// uses to fetch answers from a key's home peer: every request carries the
// PeerHopHeader loop guard, and each peer gets its own breaker state. It
// satisfies ClusterPeerTransport.
func NewPeerFillServiceClient(baseURL string, cfg ClientResilienceConfig) *ServiceClient {
	return service.NewPeerFillClient(baseURL, cfg)
}

// Observability (package obs): zero-dependency context-propagated span
// tracing, fixed-bucket histograms, and W3C traceparent plumbing. torusd
// wires these in by default (/metrics, /debug/traces); library callers can
// trace their own pipelines by installing a Tracer and passing its root
// context into ComputeLoadCtx. See OBSERVABILITY.md.
type (
	// Tracer buffers finished request traces in a bounded ring.
	Tracer = obs.Tracer
	// TracerStats are a Tracer's lifetime counters.
	TracerStats = obs.TracerStats
	// Trace is one exported span tree.
	Trace = obs.Trace
	// Span is one live timed stage; the nil *Span is a no-op.
	Span = obs.Span
	// SpanData is the exported (finished) form of a span.
	SpanData = obs.SpanData
	// SpanAttr is one key/value annotation on a span.
	SpanAttr = obs.Attr
	// Histogram is a fixed-bucket, lock-free observation histogram.
	Histogram = obs.Histogram
	// HistogramSnapshot is a Histogram's consistent point-in-time state.
	HistogramSnapshot = obs.HistSnapshot
)

// TraceparentHeader is the W3C trace-context header torusd reads and echoes.
const TraceparentHeader = obs.TraceparentHeader

// NewTracer builds a tracer retaining the last n finished traces (n <= 0
// selects the default ring size).
func NewTracer(n int) *Tracer { return obs.NewTracer(n) }

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram { return obs.NewHistogram(bounds...) }

// StartSpan opens a child span on the trace carried by ctx and returns the
// derived context. Without an active trace it returns ctx and a nil span,
// costing no allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.Start(ctx, name)
}

// SpanFromContext returns the active span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.FromContext(ctx) }

// TraceIDFromContext returns the 32-hex trace ID carried by ctx, or "".
func TraceIDFromContext(ctx context.Context) string { return obs.TraceIDFromContext(ctx) }

// NewTraceID mints a random W3C trace ID (32 hex digits).
func NewTraceID() string { return obs.NewTraceID() }

// NewSpanID mints a random non-zero span ID.
func NewSpanID() uint64 { return obs.NewSpanID() }

// FormatTraceparent renders a traceparent header value from a trace ID and
// a parent span ID.
func FormatTraceparent(traceID string, spanID uint64) string {
	return obs.FormatTraceparent(traceID, spanID)
}

// ParseTraceparent extracts the trace ID from a traceparent header value.
func ParseTraceparent(h string) (traceID string, ok bool) { return obs.ParseTraceparent(h) }

// Fault injection (package failpoint): named chaos sites threaded through
// the service, load, and sweep layers for robustness testing. Sites are
// armed with a spec string — "error", "panic", "sleep(100ms)", "partial",
// optionally counted like "3*error" — and cost one atomic load when
// disarmed. torusd also exposes them on its debug sidecar at
// /debug/failpoints and arms them from the TORUSNET_FAILPOINTS
// environment variable or the -failpoints flag at boot.

// FailpointEnable arms the named site with a spec ("off" disarms).
func FailpointEnable(site, spec string) error { return failpoint.Enable(site, spec) }

// FailpointDisable disarms the named site.
func FailpointDisable(site string) error { return failpoint.Disable(site) }

// FailpointDisableAll disarms every registered site.
func FailpointDisableAll() { failpoint.DisableAll() }

// FailpointSites lists every registered site name, sorted.
func FailpointSites() []string { return failpoint.Sites() }
