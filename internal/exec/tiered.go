package exec

import (
	"fmt"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

// MemoryReport is a session's tiered-memory placement accounting,
// surfaced on BatchResult.
// All byte counts are resident sizes; the flat fields are what the same
// content costs untiered, so Graph/Sampler ratios read directly as the
// budget's savings.
type MemoryReport struct {
	// Budget is the configured MemoryBudgetBytes.
	Budget int64
	// GraphBudget / SamplerBudget are the per-store hot-tier budgets the
	// split policy assigned (SamplerBudget 0 when the workload's sampler
	// has no O(E) store to tier).
	GraphBudget, SamplerBudget int64
	// GraphBytes is the tiered graph's resident size (hot arena +
	// compressed cold arena + locators); GraphFlatBytes is the flat CSR's
	// row storage for the same content.
	GraphBytes, GraphFlatBytes int64
	// GraphHotRows / GraphColdRows count rows per tier.
	GraphHotRows, GraphColdRows int
	// GraphColdRatio is the cold tail's flat/compressed byte ratio.
	GraphColdRatio float64
	// SamplerBytes is the sampler's resident size (tiered arenas when the
	// budget tiers it, the flat store otherwise); SamplerFlatBytes is the
	// flat store's size when a tiered sampler is in use, else equal.
	SamplerBytes, SamplerFlatBytes int64
	// SamplerHotRows / SamplerColdRows count alias rows per tier (zero
	// for untiered or parametric samplers).
	SamplerHotRows, SamplerColdRows int
	// SamplerColdRatio is the cold alias rows' flat/compressed ratio.
	SamplerColdRatio float64
	// ScratchBoundPerWorker is the most cold-row decode scratch one
	// worker's lanes can grow to (walk.ScratchBound); total scratch is
	// bounded by workers × this.
	ScratchBoundPerWorker int64
}

// TotalBytes is the combined resident footprint of the tiered stores.
func (m *MemoryReport) TotalBytes() int64 { return m.GraphBytes + m.SamplerBytes }

// tierBudgets splits the configured budget between the graph and sampler
// stores. Workloads backed by an O(E) alias store (weighted DeepWalk)
// split it evenly — both stores scale with the edge count, so an even
// split keeps the same fraction of each hot; every other sampler is
// parametric (near-zero state) and the graph tier gets the whole budget.
// A negative budget (all-cold) passes through to both stores.
func tierBudgets(g *graph.CSR, cfg Config) (graphBudget, samplerBudget int64, err error) {
	b := cfg.MemoryBudgetBytes
	if b < 0 {
		return b, b, nil
	}
	spec, err := walk.SamplerSpec(g, cfg.Walk)
	if err != nil {
		return 0, 0, err
	}
	if spec.Kind == sampling.KindAlias {
		return b / 2, b - b/2, nil
	}
	return b, 0, nil
}

// tierState bundles one session's tiered-memory borrows: the shared
// tiered graph store and the registry sampler (tiered when the budget
// covers it). Both are refcounted shares — sessions with the same graph
// and budgets read one set of arenas.
type tierState struct {
	gref *graph.TieredRef
	sref *sampling.SamplerRef
	rep  MemoryReport
}

// acquireTiered borrows the tiered graph store and the (possibly tiered)
// sampler for a nonzero-budget config. Call only when
// cfg.MemoryBudgetBytes != 0.
func acquireTiered(g *graph.CSR, cfg Config) (*tierState, error) {
	gb, sb, err := tierBudgets(g, cfg)
	if err != nil {
		return nil, err
	}
	gref, err := graph.AcquireTiered(g, gb)
	if err != nil {
		return nil, err
	}
	sref, err := walk.AcquireSamplerTiered(g, cfg.Walk, sb)
	if err != nil {
		gref.Release()
		return nil, err
	}
	ts := &tierState{gref: gref, sref: sref}
	gs := gref.Store().Stats()
	ts.rep = MemoryReport{
		Budget:         cfg.MemoryBudgetBytes,
		GraphBudget:    gb,
		SamplerBudget:  sb,
		GraphBytes:     gref.Store().MemoryFootprintBytes(),
		GraphFlatBytes: gs.FlatBytes,
		GraphHotRows:   gs.HotRows,
		GraphColdRows:  gs.ColdRows,
		GraphColdRatio: gs.CompressionRatio,
	}
	ts.rep.SamplerBytes = sampling.Footprint(sref.Sampler())
	ts.rep.SamplerFlatBytes = ts.rep.SamplerBytes
	if ta, ok := sref.Sampler().(*sampling.TieredAlias); ok {
		as := ta.Stats()
		ts.rep.SamplerFlatBytes = as.FlatBytes + as.LocatorBytes
		ts.rep.SamplerHotRows = as.HotRows
		ts.rep.SamplerColdRows = as.ColdRows
		ts.rep.SamplerColdRatio = as.CompressionRatio
	}
	return ts, nil
}

// acquireTieredSnap borrows the stores for a snapshot-serving session
// under a memory budget. The graph tier gets the WHOLE budget over the
// base CSR: a tiered alias store cannot be incrementally rebuilt, and
// tiered alias draws are RNG-identical to flat alias draws, so serving
// the incrementally derived flat sampler preserves trajectories while
// keeping the open cost O(dirty edges). SamplerBudget reads 0 in the
// report to make the policy visible.
func acquireTieredSnap(g *graph.CSR, cfg Config) (*tierState, error) {
	gb := cfg.MemoryBudgetBytes
	gref, err := graph.AcquireTiered(g, gb)
	if err != nil {
		return nil, err
	}
	sref, err := walk.AcquireSamplerSnap(cfg.Snapshot, cfg.Walk)
	if err != nil {
		gref.Release()
		return nil, err
	}
	ts := &tierState{gref: gref, sref: sref}
	gs := gref.Store().Stats()
	ts.rep = MemoryReport{
		Budget:         cfg.MemoryBudgetBytes,
		GraphBudget:    gb,
		GraphBytes:     gref.Store().MemoryFootprintBytes(),
		GraphFlatBytes: gs.FlatBytes,
		GraphHotRows:   gs.HotRows,
		GraphColdRows:  gs.ColdRows,
		GraphColdRatio: gs.CompressionRatio,
	}
	ts.rep.SamplerBytes = sampling.Footprint(sref.Sampler())
	ts.rep.SamplerFlatBytes = ts.rep.SamplerBytes
	return ts, nil
}

// acquireWalkState centralizes the CPU backends' per-session borrows: the
// registry sampler (incrementally derived when Config.Snapshot is set)
// and, under a memory budget, the tiered stores. The returned ref is
// ts.sref when ts is non-nil; callers release through either (the
// releases are idempotent together).
func acquireWalkState(g *graph.CSR, cfg Config) (*sampling.SamplerRef, *tierState, error) {
	if cfg.Snapshot != nil && cfg.Snapshot.Graph() != g {
		return nil, nil, fmt.Errorf("exec: Config.Snapshot is over a different graph")
	}
	if cfg.MemoryBudgetBytes != 0 {
		var (
			ts  *tierState
			err error
		)
		if cfg.Snapshot != nil {
			ts, err = acquireTieredSnap(g, cfg)
		} else {
			ts, err = acquireTiered(g, cfg)
		}
		if err != nil {
			return nil, nil, err
		}
		return ts.sref, ts, nil
	}
	if cfg.Snapshot != nil {
		ref, err := walk.AcquireSamplerSnap(cfg.Snapshot, cfg.Walk)
		if err != nil {
			return nil, nil, err
		}
		return ref, nil, nil
	}
	ref, err := walk.AcquireSampler(g, cfg.Walk)
	if err != nil {
		return nil, nil, err
	}
	return ref, nil, nil
}

// release returns both borrows. Safe on nil.
func (ts *tierState) release() {
	if ts == nil {
		return
	}
	ts.gref.Release()
	ts.sref.Release()
}

// report returns the placement accounting, nil for an untiered session.
func (ts *tierState) report() *MemoryReport {
	if ts == nil {
		return nil
	}
	r := ts.rep
	return &r
}
