package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ridgewalker"
	"ridgewalker/internal/admit"
	"ridgewalker/internal/exec"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

const (
	subsetQueries = 8192 // queries of the reference trajectory every probe replays
	probeReps     = 3    // repetitions of an engine probe; the median drops the cold first one
	closedLoopN   = 300  // requests of the one-caller closed loop
)

// zero is never written. XOR-ing a loaded value masked with it into the
// next address makes each access of the dependent chase wait for the one
// before it, as a depth-first walker's does, without changing the address.
var zero uint32

// sink keeps the probes' results live.
var sink uint64

// probes times each layer's public functions from outside, on inputs
// replayed from this workload's reference trajectory (walk.Run over a
// fixed subset of the workload's own queries). Layer self time follows
// by subtraction: service.overhead_ms is Submit minus the session run
// underneath it, and exec minus walk is the session's own cost.
type prober struct {
	*run
	parent int
	sub    []walk.Query
	ref    *walk.Result
	smp    sampling.Sampler
	rates  map[string]float64 // exec.run_msteps_per_s by backend
}

func (r *run) probes() error {
	psp := r.tr.begin("probes", r.root, -1)
	defer r.tr.end(psp)
	n := min(r.o.n(subsetQueries), len(r.pool), 2*r.g.NumVertices)
	p := &prober{run: r, parent: psp, sub: r.pool[:n], rates: map[string]float64{}}
	for _, step := range []func() error{
		p.walkLayer, p.graphLayer, p.rngLayer, p.samplingLayer, p.shardLayer,
		p.execLayer, p.planLayer, p.admitLayer, p.serviceLayer,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// timed runs fn inside a span and returns how long it took.
func (p *prober) timed(name string, fn func()) time.Duration {
	sp := p.tr.begin(name, p.parent, -1)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.tr.end(sp)
	return d
}

func noEmit(int, walk.Query, []graph.VertexID, int64) error { return nil }

func msteps(steps int64, d time.Duration) float64 { return float64(steps) / d.Seconds() / 1e6 }

// walkLayer produces the reference trajectory and times the one-thread
// stepping kernels on it.
func (p *prober) walkLayer() error {
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := p.timed("walk.Run", func() { p.ref, err = walk.Run(p.g, p.sub, p.cfg) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	steps := p.ref.Steps
	p.rec.layer("walk.run_msteps_per_s", msteps(steps, d), 1)
	p.rec.layer("walk.steps_per_walk", float64(steps)/float64(len(p.sub)), len(p.sub))
	p.rec.layer("walk.allocs_per_step", float64(after.Mallocs-before.Mallocs)/float64(steps), 0)

	// One sampler serves every later probe; for DeepWalk it is the O(E)
	// alias store, so its build is the sampling layer's set-up cost.
	d = p.timed("walk.BuildSampler", func() { p.smp, err = walk.BuildSampler(p.g, p.cfg) })
	if err != nil {
		return err
	}
	if as, ok := p.smp.(*sampling.AliasSampler); ok {
		p.rec.layer("sampling.alias_build_s", d.Seconds(), 1)
		p.rec.layer("sampling.alias_mb", float64(as.TableBytes())/(1<<20), 0)
	}
	for _, c := range []struct {
		size int
		name string
	}{{1, "walk.pipeline_msteps_per_s.c1"}, {16, "walk.pipeline_msteps_per_s.c16"}, {64, "walk.pipeline_msteps_per_s.c64"}} {
		pl, err := walk.NewPipelineWithSampler(p.g, p.cfg, p.smp, c.size)
		if err != nil {
			return err
		}
		var got int64
		d := p.timed(c.name, func() { got, err = pl.Run(p.sub, noEmit) })
		if err != nil {
			return err
		}
		p.rec.layer(c.name, msteps(got, d), 1)
	}
	return nil
}

// graphLayer replays the trajectory's row fetches and adjacency probes
// against the CSR alone, and times the versioned overlay.
func (p *prober) graphLayer() error {
	g := p.g
	var seq []graph.VertexID
	var pairs [][2]graph.VertexID
	for _, path := range p.ref.Paths {
		seq = append(seq, path...)
		for i := 2; i < len(path); i++ {
			pairs = append(pairs, [2]graph.VertexID{path[i-2], path[i]})
		}
	}
	p.rec.layer("graph.csr_mb", float64(int64(len(g.RowPtr))*8+int64(len(g.Col))*4+int64(len(g.Weights))*4)/(1<<20), 0)
	// Useful bytes a hop must read, computed from the layout: two row
	// pointers and one column entry, plus one alias slot (8 B probability,
	// 4 B alias) when the sampler is the alias store.
	bytes := 16.0 + 4
	if _, ok := p.smp.(*sampling.AliasSampler); ok {
		bytes += 12
	}
	p.rec.layer("graph.bytes_per_step", bytes, 0)

	d := p.timed("graph.Neighbors.dependent", func() {
		var x uint32
		for _, v := range seq {
			if row := g.Neighbors(v ^ x&zero); len(row) > 0 {
				x = row[len(row)/2]
			}
		}
		sink += uint64(x)
	})
	p.rec.layer("graph.gather_mrows_per_s", float64(len(seq))/d.Seconds()/1e6, len(seq))
	d = p.timed("graph.Neighbors.independent", func() {
		var x uint32
		for _, v := range seq {
			if row := g.Neighbors(v); len(row) > 0 {
				x += row[len(row)/2]
			}
		}
		sink += uint64(x)
	})
	p.rec.layer("graph.gather_mlp_mrows_per_s", float64(len(seq))/d.Seconds()/1e6, len(seq))
	if len(pairs) > 0 {
		d = p.timed("graph.HasEdge", func() {
			hits := 0
			for _, pr := range pairs {
				if g.HasEdge(pr[0], pr[1]) {
					hits++
				}
			}
			sink += uint64(hits)
		})
		p.rec.layer("graph.hasedge_mops_per_s", float64(len(pairs))/d.Seconds()/1e6, len(pairs))
	}

	vg := graph.NewVersioned(g)
	edges := randomEdges(g, rng.New(p.o.seed^0x70726f6265), mutateEdges)
	var apply, snapshot []float64
	var snap *graph.Snapshot
	var err error
	for rep := 0; rep < probeReps && err == nil; rep++ {
		if rep > 0 {
			err = vg.DeleteEdges(edges)
		}
		apply = append(apply, ms(p.timed("graph.InsertEdges", func() {
			if err == nil {
				err = vg.InsertEdges(edges)
			}
		}).Seconds()))
		snapshot = append(snapshot, p.timed("graph.Snapshot", func() { snap = vg.Snapshot() }).Seconds()*1e6)
	}
	if err != nil {
		return err
	}
	p.rec.layer("graph.mutate_apply_ms", median(apply), len(apply))
	p.rec.layer("graph.snapshot_us", median(snapshot), len(snapshot))
	p.rec.layer("graph.overlay_dirty_rows", float64(snap.NumDirty()), 0)
	if as, ok := p.smp.(*sampling.AliasSampler); ok {
		d := p.timed("sampling.WithRebuiltRows", func() { _, err = as.WithRebuiltRows(snap) })
		if err != nil {
			return err
		}
		p.rec.layer("sampling.alias_rebuild_ms", ms(d.Seconds()), 1)
	}
	return nil
}

func randomEdges(g *graph.CSR, r *rng.Stream, n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(r.Intn(g.NumVertices)), Dst: graph.VertexID(r.Intn(g.NumVertices))}
	}
	return edges
}

func (p *prober) rngLayer() error {
	draws := p.o.n(1 << 22)
	s := rng.New(p.o.seed)
	d := p.timed("rng.Intn", func() {
		var x int
		for i := 0; i < draws; i++ {
			x += s.Intn(1000)
		}
		sink += uint64(x)
	})
	p.rec.layer("rng.draw_ns", float64(d.Nanoseconds())/float64(draws), draws)
	return nil
}

// samplingLayer replays every sampling decision of the trajectory (same
// current and previous vertex, fresh random stream) through each sampler
// the graph admits.
func (p *prober) samplingLayer() error {
	var ctxs []sampling.Context
	for _, path := range p.ref.Paths {
		for i := 1; i < len(path); i++ {
			if p.g.Degree(path[i]) > 0 {
				ctxs = append(ctxs, sampling.Context{Cur: path[i], Prev: path[i-1], HasPrev: true, Step: i})
			}
		}
	}
	if len(ctxs) == 0 {
		return nil
	}
	rej, err := sampling.NewRejection(2, 0.5)
	if err != nil {
		return err
	}
	draw := func(name string, s sampling.Sampler) (nsPerDraw, probesPerDraw float64) {
		rs := rng.New(p.o.seed)
		var probes int
		d := p.timed(name, func() {
			for _, c := range ctxs {
				res := s.Sample(p.g, c, rs)
				probes += res.Probes
				sink += uint64(res.Index)
			}
		})
		return float64(d.Nanoseconds()) / float64(len(ctxs)), float64(probes) / float64(len(ctxs))
	}
	ns, _ := draw("sampling.Uniform", sampling.Uniform{})
	p.rec.layer("sampling.uniform_draw_ns", ns, len(ctxs))
	ns, trips := draw("sampling.Rejection", rej)
	p.rec.layer("sampling.rejection_draw_ns", ns, len(ctxs))
	p.rec.layer("sampling.rejection_trips_per_draw", trips, len(ctxs))
	if as, ok := p.smp.(*sampling.AliasSampler); ok {
		ns, _ = draw("sampling.Alias", as)
		p.rec.layer("sampling.alias_draw_ns", ns, len(ctxs))
	}
	return nil
}

// shardLayer runs the partitioned engine directly in the shape the
// planner picks on this host today (two shards, cohort 16).
func (p *prober) shardLayer() error {
	part, err := shard.Partition(p.g, 2)
	if err != nil {
		return err
	}
	eng, err := shard.NewEngine(p.g, part, p.cfg, shard.EngineConfig{Cohort: 16, Sampler: p.smp})
	if err != nil {
		return err
	}
	var st shard.RunStats
	d := p.timed("shard.Engine.Run", func() { st, err = eng.Run(context.Background(), p.sub, noEmit) })
	if err != nil {
		return err
	}
	p.rec.layer("shard.engine_msteps_per_s.s2", msteps(p.ref.Steps, d), 1)
	p.rec.layer("shard.migrations_per_step", float64(st.Migrations)/float64(p.ref.Steps), 0)
	p.rec.layer("shard.ring_stalls", float64(st.RingStalls), 0)
	return nil
}

// execLayer opens each CPU-family backend by name and runs the subset
// through Session.Run, Session.Stream and one request-sized Run.
func (p *prober) execLayer() error {
	ctx := context.Background()
	batch := ridgewalker.Batch{Queries: p.sub}
	for _, b := range []struct {
		label, backend string
		budget         int64 // MemoryBudgetBytes
		reportOpen     bool  // exec.open_ms.<label> is a named metric
	}{
		{"auto", "auto", 0, true},
		{"cpu", "cpu", 0, true},
		{"cpu-pipelined", "cpu-pipelined", 0, true},
		{"cpu-sharded", "cpu-sharded", 0, false},
		{"cpu-tiered", "cpu", ridgewalker.AutoMemoryBudget(p.g), false},
	} {
		cfg := ridgewalker.BackendConfig{Walk: p.cfg, MemoryBudgetBytes: b.budget}
		var ses ridgewalker.Session
		var err error
		d := p.timed("exec.Open."+b.label, func() { ses, err = ridgewalker.OpenBackend(b.backend, p.g, cfg) })
		if err != nil {
			return err
		}
		if b.reportOpen {
			p.rec.layer("exec.open_ms."+b.label, ms(d.Seconds()), 1)
		}
		var rates []float64
		for rep := 0; rep < probeReps && err == nil; rep++ {
			var res *ridgewalker.BatchResult
			d := p.timed("exec.Run."+b.label, func() { res, err = ses.Run(ctx, batch) })
			if err == nil {
				rates = append(rates, msteps(res.Steps, d))
			}
		}
		if err == nil && b.label == "auto" {
			err = p.autoExtras(ses)
		}
		ses.Close()
		if err != nil {
			return err
		}
		p.rates[b.label] = median(rates)
		p.rec.layer("exec.run_msteps_per_s."+b.label, p.rates[b.label], len(rates))
	}
	return nil
}

// autoExtras times the planned session through Stream and at the size of
// one serving request, the floor under lat_p50_ms.
func (p *prober) autoExtras(ses ridgewalker.Session) error {
	ctx := context.Background()
	var err error
	var steps int64
	d := p.timed("exec.Stream.auto", func() {
		err = ses.Stream(ctx, ridgewalker.Batch{Queries: p.sub}, func(w ridgewalker.WalkOutput) error {
			steps += w.Steps
			return nil
		})
	})
	if err != nil {
		return err
	}
	p.rec.layer("exec.stream_msteps_per_s.auto", msteps(steps, d), 1)
	one := ridgewalker.Batch{Queries: p.sub[:min(requestQueries, len(p.sub))]}
	var lats []float64
	for i := 0; i < p.o.n(closedLoopN) && err == nil; i++ {
		lats = append(lats, ms(p.timed("exec.Run64.auto", func() { _, err = ses.Run(ctx, one) }).Seconds()))
	}
	p.rec.layer("exec.run64_p50_ms.auto", median(lats), len(lats))
	return err
}

// planLayer times the planner's decision without and with calibration
// and states what the decision cost against the best pinned engine.
func (p *prober) planLayer() error {
	var err error
	d := p.timed("plan.PlanFor.stats", func() {
		_, err = exec.NewPlanner(p.g, exec.Config{Walk: p.cfg}).PlanFor(p.cfg)
	})
	if err != nil {
		return err
	}
	p.rec.layer("plan.planfor_ms", ms(d.Seconds()), 1)
	d = p.timed("plan.PlanFor.calibrated", func() {
		_, err = exec.NewPlanner(p.g, exec.Config{Walk: p.cfg, Plan: &plan.Options{Calibrate: true}}).PlanFor(p.cfg)
	})
	if err != nil {
		return err
	}
	p.rec.layer("plan.calibrate_ms", ms(d.Seconds()), 1)
	best := max(p.rates["cpu"], p.rates["cpu-pipelined"], p.rates["cpu-sharded"])
	if auto := p.rates["auto"]; auto > 0 {
		p.rec.layer("plan.regret", best/auto, 0)
	}
	return nil
}

func (p *prober) admitLayer() error {
	n := p.o.n(1 << 20)
	c := admit.NewController(admit.Config{Workers: runtime.GOMAXPROCS(0), MaxInFlight: admit.Auto})
	var err error
	d := p.timed("admit.Admit+Release", func() {
		for i := 0; i < n && err == nil; i++ {
			if err = c.Admit(0, "", requestQueries, -1); err == nil {
				c.Release(0, requestQueries)
			}
		}
	})
	p.rec.layer("admit.admit_release_ns", float64(d.Nanoseconds())/float64(n), n)
	return err
}

// serviceLayer drives Service from outside in closed loops, where the
// workload itself goes through Service; batch workloads never enter it.
func (p *prober) serviceLayer() error {
	if !p.w.serve {
		return nil
	}
	ctx := context.Background()
	sets := p.sets
	svc, err := ridgewalker.NewService(p.g, ridgewalker.ServiceConfig{MaxInFlight: ridgewalker.AutoInFlight})
	if err != nil {
		return err
	}
	defer svc.Close()
	var lats []float64
	for i := -p.o.n(warmRequests / 4); i < p.o.n(closedLoopN); i++ {
		d := p.timed("service.Submit.c1", func() { _, err = svc.Submit(ctx, p.cfg, sets[(i+len(sets))%len(sets)]) })
		if err != nil && !refused(err) {
			return err
		}
		if i >= 0 && err == nil { // the requests before 0 warm the class up
			lats = append(lats, ms(d.Seconds()))
		}
	}
	p.rec.layer("service.submit_p50_ms.c1", median(lats), len(lats))
	p.rec.layer("service.overhead_ms", median(lats)-p.rec.PerLayer["exec.run64_p50_ms.auto"].Value, 0)

	var steps int64
	d := p.timed("service.Stream", func() {
		err = svc.Stream(ctx, p.cfg, p.sub, func(w ridgewalker.WalkOutput) error {
			steps += w.Steps
			return nil
		})
	})
	if err != nil && !refused(err) {
		return err
	}
	if err == nil {
		p.rec.layer("service.stream_msteps_per_s", msteps(steps, d), 1)
	}

	// The first Submit after a mutation pays for the new epoch's session
	// (and, for alias workloads, the incremental sampler rebuild).
	edges := randomEdges(p.g, rng.New(p.o.seed^0x65706f6368), mutateEdges)
	var switches []float64
	for rep := 0; rep < 2*probeReps; rep++ {
		if rep%2 == 0 {
			err = svc.InsertEdges(edges)
		} else {
			err = svc.DeleteEdges(edges)
		}
		if err != nil {
			return err
		}
		d := p.timed("service.Submit.fresh", func() { _, err = svc.Submit(ctx, p.cfg, sets[rep]) })
		if err != nil && !refused(err) {
			return err
		}
		if err == nil {
			switches = append(switches, ms(d.Seconds()))
		}
	}
	p.rec.layer("service.epoch_switch_ms", median(switches), len(switches))
	return p.saturate(sets)
}

// saturate measures what the service completes with admission out of the
// way: 4 x GOMAXPROCS closed-loop callers against MaxInFlight 0.
func (p *prober) saturate(sets [][]walk.Query) error {
	svc, err := ridgewalker.NewService(p.g, ridgewalker.ServiceConfig{MaxInFlight: 0})
	if err != nil {
		return err
	}
	defer svc.Close()
	ctx := context.Background()
	// Untimed: the first requests of a class pay its calibration.
	for i := 0; i < p.o.n(warmRequests/4); i++ {
		if _, err := svc.Submit(ctx, p.cfg, sets[i%len(sets)]); err != nil {
			return err
		}
	}
	callers := 4 * runtime.GOMAXPROCS(0)
	dur := time.Duration(min(2, p.o.seconds/5) * float64(time.Second))
	var done atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	d := p.timed("service.Submit.saturate", func() {
		deadline := time.Now().Add(dur)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Now().Before(deadline); i += callers {
					if _, err := svc.Submit(ctx, p.cfg, sets[i%len(sets)]); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					done.Add(1)
				}
			}(c)
		}
		wg.Wait()
	})
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	p.rec.layer("service.sat_rps.unbudgeted", float64(done.Load())/d.Seconds(), int(done.Load()))
	return nil
}
