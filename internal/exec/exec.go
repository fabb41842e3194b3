// Package exec is the unified execution layer: every way this repository
// can run a graph-random-walk workload — the multi-core CPU engines, the
// cycle-level RidgeWalker accelerator simulator, and the modeled baseline
// systems — is exposed behind one Backend interface and selected by a
// string key.
//
// The layer has three concepts:
//
//   - A Backend is a named engine factory. Open binds it to a graph and a
//     configuration, performing all per-workload setup (sampler and alias
//     table construction, simulator instantiation, worker allocation) once.
//     Its Capabilities (batch merging, heartbeats, concurrent runs, memory
//     tiering) are read by name through CapabilitiesOf.
//   - A Session is a bound, reusable executor. Run executes a query batch
//     and returns the accumulated BatchResult; Stream executes the batch
//     and delivers each finished walk through a callback instead, so
//     arbitrarily large workloads run without materializing all paths.
//   - The registry maps backend names ("auto", "cpu", "cpu-pipelined",
//     "cpu-sharded", "ridgewalker", "lightrw", "suetal", "fastrw",
//     "gsampler") to Backend values; higher layers — the public
//     ridgewalker.Service, the cmd/ridgewalker CLI, and the internal/bench
//     figure drivers — select engines by name only.
//
// The three cpu-family backends share one session: the sampler and
// tiered-store borrows around an engine-specific stepping loop (the
// walk.Walker chunk loop, the walk.Pipeline cohort loop, or the shard
// engine). "auto" opens one of them under a plan; the analytic baselines
// price the walks of a cpu session.
//
// Sessions are safe for concurrent use: calls on one Session are
// serialized internally (or, for backends with ConcurrentRuns, run side
// by side), so a service layer can cache and share them.
package exec

import (
	"context"
	"sync/atomic"

	"ridgewalker/internal/baselines"
	"ridgewalker/internal/core"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/hbm"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

// Config configures a Session at Open time. Only Walk is required; every
// other field has a backend-appropriate default and fields irrelevant to
// the selected backend are ignored.
type Config struct {
	// Walk selects the GRW algorithm and its parameters (required).
	Walk walk.Config

	// Platform selects the accelerator memory system for simulator-backed
	// and analytic backends. The zero value uses each backend's published
	// platform (U55C for ridgewalker/lightrw/suetal; FastRW and gSampler
	// carry their own platform in their model configs).
	Platform hbm.Platform

	// Workers sets the CPU backends' worker-pool size. 0 means
	// runtime.GOMAXPROCS(0), capped on cpu-sharded at
	// shard.MaxMeshWorkers (its migration mesh is quadratic in the worker
	// count, and a larger mesh is refused). Each worker owns a reused
	// path buffer and RNG stream, so the hot path allocates nothing per
	// step.
	Workers int

	// Shards sets the cpu-sharded backend's partition count: the graph is
	// split into this many edge-balanced shards, each owning a worker pool,
	// with walkers migrating between shards on boundary crossings. 0 means
	// a backend-chosen default (GOMAXPROCS capped at 8). auto and
	// cpu-pipelined reject a nonzero value (the sharded engine is reached
	// only by naming cpu-sharded); other backends ignore it.
	Shards int

	// Cohort sets the cohort backends' in-flight walker count per worker
	// (cpu-pipelined, and each shard worker of cpu-sharded): each worker
	// advances that many walks together through the batched
	// Row/Sample/Column/Move stages, overlapping CSR row fetches across
	// walks. 0 means the backend default (DefaultCohort). Other backends
	// ignore it.
	Cohort int

	// MemoryBudgetBytes, when nonzero, serves the CPU backends through
	// tiered memory: the highest-degree rows — the bulk of a power-law
	// walk's traffic — stay uncompressed in a hot arena sized by the
	// budget, and the cold tail is stored delta-gap group-varint
	// compressed (graph.Tiered), decoded row-at-a-time into per-worker
	// scratch. Workloads with an O(E) alias store (weighted DeepWalk)
	// split the budget evenly between the graph and sampler tiers
	// (sampling.TieredAlias quantizes cold rows); other samplers give the
	// whole budget to the graph tier. Both stores are content-identical
	// to their flat counterparts, so trajectories are byte-identical at
	// any budget. Negative pins nothing — an all-cold store (tests,
	// worst-case footprint measurement). 0 (the default) keeps the flat
	// stores. Use graph.AutoMemoryBudget for a fit-the-hubs default.
	// Simulator and analytic backends ignore it.
	MemoryBudgetBytes int64

	// Snapshot, when non-nil, serves an epoch snapshot of a versioned
	// graph (graph.Versioned): rows dirtied by edge mutations since the
	// last compaction are read from the snapshot's merged overlay, clean
	// rows from the base CSR the session was opened on (which must be
	// Snapshot.Graph()). Weighted alias workloads derive their sampler
	// incrementally — only the dirty rows are rebuilt, into a spill arena
	// shared per (graph version, epoch, spec) through the sampler registry
	// — so opening against a snapshot costs O(dirty edges), not O(E).
	// Under a memory budget the graph tier gets the whole budget (tiered
	// alias rows cannot be incrementally rebuilt; draws are identical
	// either way). Only the CPU backends serve snapshots; the simulator
	// and analytic backends reject them at Open.
	Snapshot *graph.Snapshot

	// DiscardPaths drops per-query paths from Run results (throughput
	// studies on large workloads). Stream never accumulates paths.
	DiscardPaths bool

	// DisableAsync and DisableDynamicSched are the RidgeWalker backend's
	// Fig. 11 ablation switches.
	DisableAsync        bool
	DisableDynamicSched bool

	// FastRW overrides the FastRW backend's model parameters
	// (default baselines.DefaultFastRW).
	FastRW *baselines.FastRWConfig

	// GPU overrides the gSampler backend's model parameters
	// (default baselines.DefaultH100).
	GPU *baselines.GPUConfig

	// Deprecated: ignored. The "auto" plan is a constant (plan.Decide).
	Plan *plan.Options
}

// platform returns the configured platform or the given default.
func (c Config) platform(def hbm.Platform) hbm.Platform {
	if c.Platform.Name == "" {
		return def
	}
	return c.Platform
}

// Batch is one unit of submitted work: a set of walk queries executed
// under the Session's configuration. Query IDs key the deterministic
// per-query RNG streams; batches merged from several requests may repeat
// IDs on the CPU backend (each query's walk depends only on its own ID),
// while simulator backends require unique IDs within a batch.
type Batch struct {
	Queries []walk.Query

	// Heartbeat, when non-nil, is incremented by heartbeat-capable
	// sessions (Capabilities.Heartbeats) at their cooperative-stop
	// checkpoints — every 64 walks on the flat engine, every cohort
	// pass on the pipeline, every finished walk on the sharded engine.
	// Serving-layer watchdogs watch the counter to tell a slow batch
	// from a wedged one; sessions without the capability ignore it.
	Heartbeat *atomic.Int64
}

// WalkOutput is one finished walk delivered through Session.Stream.
type WalkOutput struct {
	// Query is the originating query's ID.
	Query uint32
	// Path is the visited-vertex sequence including the start vertex. It
	// is valid only for the duration of the callback; callers that retain
	// paths must copy them (backends recycle the buffer).
	Path []graph.VertexID
	// Steps is the number of hops taken (len(Path)-1).
	Steps int64
}

// BatchResult aggregates a Run call.
type BatchResult struct {
	// Paths holds each query's path in batch order (nil when the session
	// was opened with DiscardPaths).
	Paths [][]graph.VertexID
	// Steps is the total hop count across the batch.
	Steps int64
	// Sim carries cycle-level performance statistics for simulator-backed
	// backends (ridgewalker, lightrw, suetal); nil otherwise.
	Sim *core.Stats
	// Model carries modeled performance for baseline backends (lightrw,
	// suetal, fastrw, gsampler); nil otherwise.
	Model *baselines.Result
	// Memory carries the session's tiered-memory placement accounting;
	// nil unless the session was opened with a nonzero MemoryBudgetBytes.
	Memory *MemoryReport
	// Plan carries the resolved execution plan for sessions opened
	// through the "auto" backend (chosen backend and shape, observed
	// steps/sec); nil for manually selected backends.
	Plan *PlanReport
}

// Session is a backend bound to one graph and configuration, reusable
// across batches. Implementations serialize Run/Stream internally, or run
// them side by side (Capabilities.ConcurrentRuns), so a Session may be
// shared between goroutines. The cpu family has one implementation;
// optional Session capabilities are SamplerSizer and PlanReporter.
type Session interface {
	// Run executes the batch to completion and returns the accumulated
	// result. The output is deterministic in the configured seed.
	Run(ctx context.Context, batch Batch) (*BatchResult, error)
	// Stream executes the batch, delivering each finished walk to fn as it
	// completes instead of accumulating paths — the whole-workload memory
	// footprint stays O(queries), not O(steps). Delivery order is
	// unspecified; fn is never called concurrently. A non-nil error from
	// fn stops the run and is returned.
	Stream(ctx context.Context, batch Batch, fn func(WalkOutput) error) error
	// Close releases session resources. The session must not be used
	// afterwards.
	Close() error
}

// Backend is a named execution engine.
type Backend interface {
	// Name is the registry key ("cpu", "ridgewalker", ...).
	Name() string
	// Description is a one-line summary for CLI listings.
	Description() string
	// Open binds the backend to a graph and configuration, performing all
	// per-workload setup. The graph must satisfy the walk config's
	// requirements (weights for DeepWalk, labels for MetaPath).
	Open(g *graph.CSR, cfg Config) (Session, error)
}

// SamplerSizer is an optional Session capability: sessions that borrow
// sampler state from the sampler registry report its resident byte size
// (the flat alias store for weighted DeepWalk, near-zero for parametric
// samplers). The perf suite records it as sampler_bytes.
type SamplerSizer interface {
	SamplerBytes() int64
}

// Capabilities are what a backend's sessions guarantee beyond the
// Session contract; serving layers and CLI listings key on them. A
// backend declares them through an optional Capabilities() method.
type Capabilities struct {
	// MergesBatches: walks depend only on (seed, query ID, start vertex),
	// never on batch composition, so serving layers may coalesce
	// concurrent requests into one Run. Backends without it (simulators
	// routing walks through shared pipelines, models requiring unique
	// query IDs per batch) are dispatched per request.
	MergesBatches bool
	// Heartbeats: sessions bump Batch.Heartbeat at cooperative-stop
	// checkpoints, which licenses a serving-layer watchdog to treat a
	// flat heartbeat as "wedged" and cancel the batch. Backends without
	// it are never watchdog-killed.
	Heartbeats bool
	// ConcurrentRuns: sessions run overlapping Run/Stream calls side by
	// side instead of serializing them, so a serving layer may dispatch
	// several batches of one session at once.
	ConcurrentRuns bool
	// MemoryTiering: the backend honors Config.MemoryBudgetBytes,
	// serving walks through the tiered graph and sampler stores.
	MemoryTiering bool
}

// CapabilitiesOf returns the named backend's declared capabilities: the
// zero value for a backend that declares none and for unknown names.
func CapabilitiesOf(name string) Capabilities {
	b, err := Lookup(name)
	if err != nil {
		return Capabilities{}
	}
	if c, ok := b.(interface{ Capabilities() Capabilities }); ok {
		return c.Capabilities()
	}
	return Capabilities{}
}

// PlanReport is the resolved execution decision a planned session runs
// under, plus its realized throughput — the record that keeps the
// "auto" backend debuggable instead of a black box.
type PlanReport struct {
	// Backend, Cohort, and MemoryBudgetBytes are the chosen engine and
	// shape.
	Backend           string
	Cohort            int
	MemoryBudgetBytes int64
	// Source and Reason record where the plan came from ("default",
	// "pinned", "demoted", "restored") and why.
	Source string
	Reason string
	// Revision counts the class's breaker demotions and restorations.
	Revision int
	// ObservedStepsPerSec is the EWMA of the session's own runs so far,
	// with Runs counting them.
	ObservedStepsPerSec float64
	Runs                int64
}

// PlanReporter is an optional Session capability: sessions opened
// through the "auto" backend report the plan they resolved to. The
// returned report is a snapshot; mutating it does not affect the
// session.
type PlanReporter interface {
	PlanReport() *PlanReport
}
