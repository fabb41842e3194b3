// Package ridgewalker is a library for high-throughput graph random walks
// (GRWs), reproducing "RidgeWalker: Perfectly Pipelined Graph Random Walks
// on FPGAs" (HPCA 2026).
//
// It provides four layers:
//
//   - A graph substrate: CSR graphs, RMAT and dataset-twin generators,
//     binary serialization, and SNAP edge-list parsing.
//   - A software GRW engine (Walk, WalkParallel) implementing URW, PPR,
//     DeepWalk, Node2Vec and MetaPath with the paper's sampling algorithms
//     (uniform, alias, rejection, reservoir — Table I), plus a
//     step-interleaved variant (WalkPipelined, backend "cpu-pipelined")
//     that decomposes each hop into batched Row/Sample/Column/Move stages
//     over cohorts of in-flight walkers so CSR row fetches overlap
//     sampling — the software analogue of the paper's perfectly
//     pipelined datapath — and a sharded variant (WalkSharded, backend
//     "cpu-sharded") that partitions the graph into edge-balanced shards
//     whose workers run those cohorts, migrating walkers across
//     partition boundaries. The sharded engine runs only when named: the
//     planner never picks it. All are byte-identical to Walk for the same
//     seed.
//   - A cycle-level simulation of the RidgeWalker accelerator (Simulate):
//     asynchronous Row-Access/Sampling/Column-Access pipelines over an
//     HBM/DDR channel model, the data-aware task router, and the
//     zero-bubble scheduler, with ablation switches for the paper's
//     Fig. 11 breakdown.
//   - A unified execution layer and serving frontend. Every engine — the
//     CPU engine, the accelerator simulator, and the modeled baseline
//     systems (LightRW, Su et al., FastRW, gSampler) — sits behind one
//     Backend interface and is selected by name (Backends, OpenBackend).
//     Sessions run query batches (Session.Run) or stream each finished
//     walk through a callback without materializing all paths
//     (Session.Stream). Service adds request coalescing (max batch size +
//     linger), cached sessions with a fixed worker pool whose reused path
//     buffers and RNG streams make the CPU hot path allocation-free, and
//     per-backend/per-algorithm served-query metrics.
//
// Quick start:
//
//	g, _ := ridgewalker.GenerateRMAT(ridgewalker.Balanced(14, 8, 1))
//	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
//	qs, _ := ridgewalker.RandomQueries(g, cfg, 1000, 7)
//	res, stats, _ := ridgewalker.Simulate(g, qs, ridgewalker.SimOptions{
//		Platform: ridgewalker.U55C, Walk: cfg,
//	})
//	fmt.Printf("%.0f MStep/s (%.0f%% of Eq.(1) peak)\n",
//		stats.ThroughputMSteps(), 100*stats.Eq1Utilization())
//	_ = res.Paths
//
// Serving:
//
//	svc, _ := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu"})
//	defer svc.Close()
//	res, _ := svc.Submit(ctx, cfg, qs)        // batched with concurrent callers
//	_ = svc.Stream(ctx, cfg, qs, func(w ridgewalker.WalkOutput) error {
//		return nil // w.Path is valid during the callback only
//	})
package ridgewalker

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ridgewalker/internal/admit"
	"ridgewalker/internal/core"
	"ridgewalker/internal/exec"
	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/hbm"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

// Graph is a compressed-sparse-row graph (see internal/graph for methods:
// Degree, Neighbors, HasEdge, Validate, AttachWeights, AttachLabels, ...).
type Graph = graph.CSR

// Edge is a directed edge for graph construction.
type Edge = graph.Edge

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// RMATConfig parameterizes the RMAT generator.
type RMATConfig = graph.RMATConfig

// DatasetSpec describes a scaled twin of one of the paper's datasets.
type DatasetSpec = graph.DatasetSpec

// NewGraph builds a CSR graph from an edge list.
func NewGraph(numVertices int, edges []Edge, directed bool) (*Graph, error) {
	return graph.Build(numVertices, edges, directed)
}

// GenerateRMAT produces an RMAT graph.
func GenerateRMAT(cfg RMATConfig) (*Graph, error) { return graph.GenerateRMAT(cfg) }

// Balanced returns the balanced RMAT initiator (a=b=c=d=0.25).
func Balanced(scale, edgeFactor int, seed uint64) RMATConfig {
	return graph.Balanced(scale, edgeFactor, seed)
}

// Graph500 returns the skewed Graph500 RMAT initiator.
func Graph500(scale, edgeFactor int, seed uint64) RMATConfig {
	return graph.Graph500(scale, edgeFactor, seed)
}

// Datasets lists the scaled twins of the paper's Table II datasets.
func Datasets() []DatasetSpec { return graph.Datasets }

// DatasetByName returns a twin spec by its paper abbreviation (WG, CP, AS,
// LJ, AB, UK).
func DatasetByName(name string) (DatasetSpec, error) { return graph.DatasetByName(name) }

// LoadGraph reads a graph in the package binary format.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph in the package binary format.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// ParseEdgeList reads a SNAP-style whitespace edge list.
func ParseEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ParseEdgeList(r, directed)
}

// VersionedGraph wraps an immutable base Graph with per-vertex delta
// overlays so edges can be inserted and deleted while walk sessions are
// serving: mutations advance an epoch, GraphSnapshot pins one, and
// Compact folds the deltas into a fresh base CSR. Service embeds one
// around its graph; use NewVersionedGraph for direct engine access.
type VersionedGraph = graph.Versioned

// GraphSnapshot is an immutable epoch-pinned view of a VersionedGraph,
// servable through BackendConfig.Snapshot.
type GraphSnapshot = graph.Snapshot

// GraphVersionStats is a VersionedGraph's mutation accounting.
type GraphVersionStats = graph.VersionStats

// NewVersionedGraph wraps g for in-place edge mutation with epoch-pinned
// snapshot serving.
func NewVersionedGraph(g *Graph) *VersionedGraph { return graph.NewVersioned(g) }

// Algorithm selects the GRW variant.
type Algorithm = walk.Algorithm

// GRW algorithm variants (paper §VIII-A4).
const (
	URW      = walk.URW
	PPR      = walk.PPR
	DeepWalk = walk.DeepWalk
	Node2Vec = walk.Node2Vec
	MetaPath = walk.MetaPath
)

// WalkConfig selects the GRW algorithm and parameters.
type WalkConfig = walk.Config

// Lane is a serving priority class (WalkConfig.Lane). It is scheduling
// metadata only — the Service admits and drains interactive traffic
// ahead of bulk, but a walk's trajectory never depends on its lane.
type Lane = walk.Lane

// Serving priority lanes.
const (
	// LaneInteractive is the latency-sensitive lane (the default).
	LaneInteractive = walk.LaneInteractive
	// LaneBulk is the throughput lane for corpus jobs.
	LaneBulk = walk.LaneBulk
)

// TenantQuota is a per-tenant token-bucket allowance (see ServiceConfig
// TenantQuota and TenantQuotas): QPS queries per second of sustained
// refill, Burst queries of instantaneous depth. The zero value is
// unlimited.
type TenantQuota = admit.Quota

// AdmissionCounter tallies admission outcomes in queries: Admitted
// passed the gate, Shed were rejected at admission (budget or quota),
// Expired were admitted but completed after every submitter's context
// was gone.
type AdmissionCounter = admit.Counters

// AdmissionStats is a point-in-time snapshot of the Service admission
// controller (Service.AdmissionStatus): the current in-flight budget,
// admitted-but-unfinished query count, EWMA service rate, feedback
// window, and per-lane/per-tenant outcome counters.
type AdmissionStats = admit.Stats

// AutoInFlight, as ServiceConfig.MaxInFlight, derives the in-flight
// budget from the observed service rate via the paper's Theorem VI.1
// feedback-depth math instead of a static cap.
const AutoInFlight = admit.Auto

// Serving sentinel errors, matchable with errors.Is through any
// wrapping the Service applies.
var (
	// ErrOverloaded rejects a Submit/Stream that would exceed the
	// admission budget or provably cannot meet its deadline. Shed
	// requests fail in microseconds — retry with backoff or downgrade
	// to LaneBulk.
	ErrOverloaded = admit.ErrOverloaded
	// ErrQuotaExceeded rejects a Submit/Stream whose tenant token
	// bucket has run dry; other tenants are unaffected.
	ErrQuotaExceeded = admit.ErrQuotaExceeded
	// ErrServiceClosed rejects work submitted after Service.Close.
	ErrServiceClosed = errors.New("ridgewalker: service is closed")
	// ErrEngineFault marks a contained engine crash: a panic inside a
	// backend (or an injected fault) was caught at a containment
	// boundary and delivered to the affected submitters as a typed
	// error. The service keeps serving; the faulted session is
	// discarded, the query class's circuit breaker advances, and
	// repeatedly-faulting queries are quarantined.
	ErrEngineFault = fault.ErrEngineFault
	// ErrQuarantined rejects a Submit/Stream carrying a query that has
	// already caused ServiceConfig.QuarantineThreshold engine faults — a
	// deterministic poison query cannot keep crashing fresh sessions.
	ErrQuarantined = errors.New("ridgewalker: query quarantined after repeated engine faults")
	// ErrEngineStalled wraps a batch the watchdog canceled for making no
	// engine progress (heartbeat stopped advancing).
	ErrEngineStalled = errors.New("ridgewalker: engine stalled (watchdog)")
)

// Query is one random-walk request.
type Query = walk.Query

// Result carries walk paths and the total step count.
type Result = walk.Result

// DefaultWalkConfig returns the paper's standard configuration for alg
// (length 80; α=0.2 for PPR; p=2, q=0.5 for Node2Vec).
func DefaultWalkConfig(alg Algorithm) WalkConfig { return walk.DefaultConfig(alg) }

// RandomQueries draws start vertices uniformly from eligible vertices.
func RandomQueries(g *Graph, cfg WalkConfig, n int, seed uint64) ([]Query, error) {
	return walk.RandomQueries(g, cfg, n, seed)
}

// Walk runs the software reference engine sequentially. It is a thin
// wrapper over the "cpu" execution backend with one worker.
func Walk(g *Graph, queries []Query, cfg WalkConfig) (*Result, error) {
	return runCPU(g, queries, cfg, 1)
}

// WalkParallel runs the software engine across worker goroutines; the
// result is byte-identical to Walk for the same seed.
func WalkParallel(g *Graph, queries []Query, cfg WalkConfig, workers int) (*Result, error) {
	if workers < 1 {
		return nil, fmt.Errorf("ridgewalker: workers %d, want >= 1", workers)
	}
	return runCPU(g, queries, cfg, workers)
}

// WalkSharded runs the partitioned software engine: the graph is split
// into shards edge-balanced partitions, each owning a pool of
// cohort-stepping workers, and walkers migrate between shards through
// SPSC rings when a hop crosses a partition boundary. The result is
// byte-identical to Walk for the same seed at any shard count. It is a thin wrapper over the
// "cpu-sharded" execution backend; shards may be 0 for the backend's
// default.
func WalkSharded(g *Graph, queries []Query, cfg WalkConfig, shards int) (*Result, error) {
	ses, err := exec.Open("cpu-sharded", g, exec.Config{Walk: cfg, Shards: shards})
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: queries})
	if err != nil {
		return nil, err
	}
	return &Result{Paths: res.Paths, Steps: res.Steps}, nil
}

// WalkPipelined runs the step-interleaved software engine: each worker
// advances a cohort of in-flight walks together through batched
// Row/Sample/Column/Move stages, so one walk's CSR row fetch overlaps the
// sampling and move work of the others instead of stalling its own next
// hop. The result is byte-identical to Walk for the same seed at any
// cohort size. It is a thin wrapper over the "cpu-pipelined" execution
// backend; cohort may be 0 for the backend's default.
func WalkPipelined(g *Graph, queries []Query, cfg WalkConfig, cohort int) (*Result, error) {
	ses, err := exec.Open("cpu-pipelined", g, exec.Config{Walk: cfg, Cohort: cohort})
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: queries})
	if err != nil {
		return nil, err
	}
	return &Result{Paths: res.Paths, Steps: res.Steps}, nil
}

func runCPU(g *Graph, queries []Query, cfg WalkConfig, workers int) (*Result, error) {
	ses, err := exec.Open("cpu", g, exec.Config{Walk: cfg, Workers: workers})
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: queries})
	if err != nil {
		return nil, err
	}
	return &Result{Paths: res.Paths, Steps: res.Steps}, nil
}

// VisitCounts tallies per-vertex visit counts over a result.
func VisitCounts(g *Graph, res *Result) []int64 { return walk.VisitCounts(g, res) }

// Platform describes an accelerator board's memory system and clock.
type Platform = hbm.Platform

// Evaluation platforms (paper §VIII-A, Table III).
var (
	U55C    = hbm.U55C
	U50     = hbm.U50
	U280    = hbm.U280
	U250    = hbm.U250
	VCK5000 = hbm.VCK5000
)

// PlatformByName looks up a platform ("U55C", "U50", "U280", "U250",
// "VCK5000").
func PlatformByName(name string) (Platform, error) { return hbm.PlatformByName(name) }

// SimOptions configures an accelerator simulation.
type SimOptions struct {
	// Platform selects the memory system (default U55C).
	Platform Platform
	// Walk selects the GRW algorithm (required).
	Walk WalkConfig
	// Async and DynamicSched are the Fig. 11 ablation switches; both
	// default to true (full RidgeWalker). Set DisableAsync /
	// DisableDynamicSched to turn one off.
	DisableAsync        bool
	DisableDynamicSched bool
	// RecordPaths keeps full paths in the result (default true). Disable
	// for throughput studies on large workloads.
	DiscardPaths bool
}

// SimStats reports simulated accelerator performance.
type SimStats = core.Stats

// Simulate runs the query batch on the cycle-level RidgeWalker model and
// returns the walks plus simulated performance statistics. It is a thin
// wrapper over the "ridgewalker" execution backend; paths come back in
// query order.
func Simulate(g *Graph, queries []Query, opts SimOptions) (*Result, *SimStats, error) {
	ses, err := exec.Open("ridgewalker", g, exec.Config{
		Walk:                opts.Walk,
		Platform:            opts.Platform,
		DisableAsync:        opts.DisableAsync,
		DisableDynamicSched: opts.DisableDynamicSched,
		DiscardPaths:        opts.DiscardPaths,
	})
	if err != nil {
		return nil, nil, err
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: queries})
	if err != nil {
		return nil, nil, err
	}
	return &Result{Paths: res.Paths, Steps: res.Steps}, res.Sim, nil
}

// Execution layer: every engine in the repository behind one interface.
// See internal/exec for the contract; Service for the serving frontend.
type (
	// Backend is a named execution engine ("cpu", "cpu-sharded",
	// "cpu-pipelined", "ridgewalker", "lightrw", "suetal", "fastrw",
	// "gsampler").
	Backend = exec.Backend
	// Session is a backend bound to a graph and configuration, reusable
	// across batches and safe for concurrent use.
	Session = exec.Session
	// Batch is one unit of submitted work.
	Batch = exec.Batch
	// BatchResult aggregates a Session.Run call; simulator-backed
	// backends attach cycle-level stats (Sim) and baseline backends
	// attach modeled performance (Model).
	BatchResult = exec.BatchResult
	// WalkOutput is one finished walk delivered through a Stream
	// callback; its Path is valid only during the callback.
	WalkOutput = exec.WalkOutput
	// BackendConfig configures OpenBackend.
	BackendConfig = exec.Config
	// MemoryReport is a tiered session's placement accounting, attached
	// to BatchResult when the session was opened with a nonzero
	// MemoryBudgetBytes.
	MemoryReport = exec.MemoryReport
	// PlanOptions is the "auto" planner's former tuning surface.
	//
	// Deprecated: ignored. The auto plan is cpu-pipelined at the pinned
	// Cohort (default 256); pin Cohort to change it.
	PlanOptions = plan.Options
	// PlanReport is the resolved execution decision attached to
	// BatchResult (and available via the PlanReporter capability) for
	// sessions opened through the "auto" backend.
	PlanReport = exec.PlanReport
	// PlanClassStatus is one query class's planning state, reported by
	// Service.PlanStatus: the plan it serves and whether the circuit
	// breaker has demoted it.
	PlanClassStatus = plan.ClassStatus
)

// ExplainPlan renders the "auto" backend's decision record for a
// configuration without opening a session: the query class, the plan
// and the reason for it. The CLI's -explain-plan flag is a thin wrapper
// over this.
func ExplainPlan(g *Graph, cfg BackendConfig) (string, error) {
	return exec.NewPlanner(g, cfg).Explain(cfg.Walk)
}

// SessionPlan returns the resolved execution plan of a session opened
// through the "auto" backend (nil, false for manually selected
// backends) — the chosen engine and shape plus the session's observed
// steps/sec.
func SessionPlan(s Session) (*PlanReport, bool) {
	pr, ok := s.(exec.PlanReporter)
	if !ok {
		return nil, false
	}
	return pr.PlanReport(), true
}

// AutoMemoryBudget returns a fit-the-hubs default memory budget for g:
// large enough that the high-degree rows carrying the bulk of a
// power-law walk's traffic stay uncompressed, small enough that the
// compressed cold tail dominates the resident savings. Pass it to
// BackendConfig/ServiceConfig MemoryBudgetBytes.
func AutoMemoryBudget(g *Graph) int64 { return graph.AutoMemoryBudget(g) }

// Backends lists the registered execution backend names.
func Backends() []string { return exec.Names() }

// BackendByName returns a registered execution backend.
func BackendByName(name string) (Backend, error) { return exec.Lookup(name) }

// BackendSupportsMemoryTiering reports whether the named backend honors
// the MemoryBudgetBytes knob (tiered graph + sampler stores).
func BackendSupportsMemoryTiering(name string) bool { return exec.SupportsMemoryTiering(name) }

// BackendSupportsVersionedGraphs reports whether the named backend can
// serve a GraphSnapshot (BackendConfig.Snapshot). Backends without the
// capability reject snapshots at open; compact the graph first.
func BackendSupportsVersionedGraphs(name string) bool { return exec.SupportsVersionedGraphs(name) }

// OpenBackend binds a named execution backend to a graph, performing all
// per-workload setup (sampler construction, simulator instantiation,
// worker allocation) once; the session then runs any number of batches.
func OpenBackend(name string, g *Graph, cfg BackendConfig) (Session, error) {
	return exec.Open(name, g, cfg)
}

// Fault injection and fault-isolation surface. The library threads named
// injection points through its engine hot paths (sampler build, cold-row
// decode, shard ring hand-off, dispatcher flush, batch execution); arming one makes the point fail — as a typed error
// or a panic — on a deterministic schedule, exercising the same
// containment, breaker, quarantine, and watchdog machinery a real crash
// would. Disarmed points cost one atomic load. The chaos tests and the
// CLI's -chaos flag are built on this.
type (
	// FaultPoint names an injection point (see FaultPoints).
	FaultPoint = fault.Point
	// FaultSpec schedules an armed point: error or panic mode, fire
	// cadence (Every/After/Limit), and an optional backend tag filter.
	FaultSpec = fault.Spec
	// BreakerStatus is one query class's circuit-breaker state
	// (FaultReport.Breakers).
	BreakerStatus = fault.BreakerStatus
)

// FaultPoints lists every named injection point.
func FaultPoints() []FaultPoint { return fault.Points() }

// EnableFaultInjection arms one injection point. Panics on an unknown
// point or invalid spec (it is a test/chaos facility — misconfiguration
// should fail loudly).
func EnableFaultInjection(p FaultPoint, spec FaultSpec) { fault.Enable(p, spec) }

// DisableFaultInjection disarms every injection point and clears their
// schedules and counters.
func DisableFaultInjection() { fault.Reset() }

// ParseFaultInjection parses a comma-separated chaos directive like
//
//	"batch-exec=panic:tag=cpu-pipelined:every=100,cold-decode=error:after=5"
//
// and arms the named points, returning them. This is the CLI -chaos
// flag's format; see internal/fault.ParseSpec for the grammar. Parsing
// is all-or-nothing: on error no point is armed.
func ParseFaultInjection(directive string) ([]FaultPoint, error) { return fault.ParseSpecs(directive) }

// FaultInjectionCounts reports, per armed injection point, how many
// times it has fired.
func FaultInjectionCounts() map[FaultPoint]int64 { return fault.Counts() }
