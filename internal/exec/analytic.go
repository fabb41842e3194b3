package exec

import (
	"context"
	"fmt"

	"ridgewalker/internal/baselines"
	"ridgewalker/internal/graph"
)

func init() {
	Register(analyticBackend{
		name: "fastrw",
		desc: "FastRW baseline model (on-chip caching, blocking misses), trace-driven analytic pricing",
		estimate: func(g *graph.CSR, tr *baselines.Trace, cfg Config) baselines.Result {
			fc := baselines.DefaultFastRW()
			if cfg.FastRW != nil {
				fc = *cfg.FastRW
			}
			return baselines.EstimateFastRW(tr, fc)
		},
	})
	Register(analyticBackend{
		name: "gsampler",
		desc: "gSampler baseline model (H100 SIMT super-batching), trace-driven analytic pricing",
		estimate: func(g *graph.CSR, tr *baselines.Trace, cfg Config) baselines.Result {
			gc := baselines.DefaultH100()
			if cfg.GPU != nil {
				gc = *cfg.GPU
			}
			return baselines.EstimateGSampler(g, tr, cfg.Walk, gc)
		},
	})
}

// analyticBackend adapts the trace-driven baseline models (FastRW,
// gSampler) to the Backend interface. Walks execute on the golden CPU
// engine — the models need the real per-walk trace — and the architecture
// model prices the trace; Run reports the modeled performance in
// BatchResult.Model.
type analyticBackend struct {
	name     string
	desc     string
	estimate func(g *graph.CSR, tr *baselines.Trace, cfg Config) baselines.Result
}

func (b analyticBackend) Name() string        { return b.name }
func (b analyticBackend) Description() string { return b.desc }

func (b analyticBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	if cfg.Snapshot != nil {
		return nil, fmt.Errorf("exec: backend %q does not serve versioned-graph snapshots (compact the graph first)", b.name)
	}
	inner, err := Open("cpu", g, cfg)
	if err != nil {
		return nil, err
	}
	return &analyticSession{cpuSession: inner.(*cpuSession), backend: b, g: g, cfg: cfg}, nil
}

// analyticSession is the cpu session it walks on, with Run pricing the
// batch's trace; Stream, Close and SamplerBytes are the cpu session's.
type analyticSession struct {
	*cpuSession
	backend analyticBackend
	g       *graph.CSR
	cfg     Config
}

func (s *analyticSession) Run(ctx context.Context, batch Batch) (*BatchResult, error) {
	// Stream the walks off the golden engine — the models price lengths and
	// degrees, so paths are only kept when the caller asked for them. Walk
	// lengths are recorded by batch index: the GPU model assigns walks to
	// warps in input order, and completion order is scheduling-dependent.
	res := &BatchResult{}
	n := len(batch.Queries)
	hops := make([]int, n)
	var sumDeg float64
	var visits int64
	if !s.cfg.DiscardPaths {
		res.Paths = make([][]graph.VertexID, n)
	}
	err := s.streamIndexed(ctx, batch, func(i int, w WalkOutput) error {
		hops[i] = len(w.Path) - 1
		res.Steps += w.Steps
		for _, v := range w.Path {
			sumDeg += float64(s.g.Degree(v))
			visits++
		}
		if res.Paths != nil {
			cp := make([]graph.VertexID, len(w.Path))
			copy(cp, w.Path)
			res.Paths[i] = cp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr := baselines.NewTrace(s.g)
	tr.SetWalks(hops, sumDeg, visits)
	model := s.backend.estimate(s.g, tr, s.cfg)
	res.Model = &model
	return res, nil
}
