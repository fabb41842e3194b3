package walk

import (
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
)

// EmitFunc receives one finished walk from a Pipeline: the query's
// position in the input batch, the query itself, the visited path
// (including the start vertex), and the hop count. The path aliases a
// recycled lane buffer and is valid only during the call.
type EmitFunc func(index int, q Query, path []graph.VertexID, steps int64) error

// Pipeline drives a query batch through a Cohort: it keeps the cohort's
// lanes full by injecting pending queries as walks retire, so the
// Row/Sample/Column/Move stages always have a cohort's worth of independent
// row fetches in flight. One Pipeline serves one goroutine.
//
// Like Walker, a Pipeline owns per-lane path buffers and RNG streams that
// are recycled across queries, so the steady-state hot path performs zero
// allocations per step — once every lane a batch needs has been used, Run
// itself allocates nothing (the emit trampoline and slot pools are built
// at construction).
//
// Output is byte-identical to Run's for the same seed: each walk draws
// from its own query-keyed stream in Advance's order, so cohort size and
// lane interleaving never change a trajectory, only emission order.
type Pipeline struct {
	g       *graph.CSR
	cfg     Config
	cohort  *Cohort
	src     *rng.Source
	states  []State
	rngs    []rng.Stream
	queryOf []Query // per-slot originating query
	indexOf []int   // per-slot batch index
	freeTop int
	freeIDs []int32

	// Per-Run fields, referenced by the preallocated retire closure.
	emit     EmitFunc
	retireFn func(tag int32) error
	steps    int64
	err      error // first emit error; once set, emit is never called again

	// stop, when set, is polled once per cohort pass; when it reports
	// true, Run abandons in-flight lanes and returns ErrStopped.
	stop func() bool
}

// NewPipeline builds a pipelined stepper for g under cfg with the given
// cohort size, constructing its own sampler.
func NewPipeline(g *graph.CSR, cfg Config, size int) (*Pipeline, error) {
	s, err := BuildSampler(g, cfg)
	if err != nil {
		return nil, err
	}
	return NewPipelineWithSampler(g, cfg, s, size)
}

// NewPipelineWithSampler builds a pipelined stepper sharing a previously
// built sampler (safe: samplers are read-only in use).
func NewPipelineWithSampler(g *graph.CSR, cfg Config, s sampling.Sampler, size int) (*Pipeline, error) {
	if err := cfg.Validate(g); err != nil {
		return nil, err
	}
	c, err := NewCohort(g, cfg, s, size)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		g:       g,
		cfg:     cfg,
		cohort:  c,
		src:     rng.NewSource(cfg.Seed),
		states:  make([]State, size),
		rngs:    make([]rng.Stream, size),
		queryOf: make([]Query, size),
		indexOf: make([]int, size),
		freeIDs: make([]int32, size),
	}
	p.resetFree()
	p.retireFn = func(tag int32) error {
		st := &p.states[tag]
		p.steps += int64(st.Step)
		// Several lanes can retire in one Step pass; once an emit has
		// failed, later retirees are recycled without another emit call
		// (matching the sequential engines' stop-on-error contract).
		if p.err == nil {
			if err := p.emit(p.indexOf[tag], p.queryOf[tag], st.Path, int64(st.Step)); err != nil {
				p.err = err
			}
		}
		p.freeIDs[p.freeTop] = tag
		p.freeTop++
		return p.err
	}
	return p, nil
}

func (p *Pipeline) resetFree() {
	for i := range p.freeIDs {
		p.freeIDs[i] = int32(i)
	}
	p.freeTop = len(p.freeIDs)
}

// SetRows makes the cohort resolve rows through rs (see
// Cohort.SetRows). Call before the first Run.
func (p *Pipeline) SetRows(rs *graph.Rows) { p.cohort.SetRows(rs) }

// SetStop installs a cooperative cancellation hook, polled once per
// cohort pass (every lane takes at most one hop between polls). When it
// reports true, Run abandons its in-flight lanes and returns ErrStopped,
// shedding the batch's remaining steps. nil clears the hook. The hook is
// retained across Runs; engines that share a Pipeline between batches
// should install the current batch's hook before each Run.
func (p *Pipeline) SetStop(stop func() bool) { p.stop = stop }

// Run executes the query batch, delivering each finished walk through
// emit. Delivery order is unspecified (lanes retire as they terminate);
// the batch index passed to emit identifies each walk. It returns the
// total hop count and the first emit error, after which remaining
// in-flight lanes are abandoned.
func (p *Pipeline) Run(queries []Query, emit EmitFunc) (int64, error) {
	p.emit = emit
	p.steps = 0
	p.err = nil
	next := 0
	for {
		// Inject: fill free lanes with pending queries.
		for p.freeTop > 0 && next < len(queries) {
			p.freeTop--
			slot := p.freeIDs[p.freeTop]
			q := queries[next]
			p.queryOf[slot] = q
			p.indexOf[slot] = next
			next++
			p.src.StreamInto(uint64(q.ID), &p.rngs[slot])
			if p.states[slot].Path == nil {
				// A lane's path buffer is allocated when the lane is first
				// used: a cohort wider than the batches it serves costs no
				// memory for its idle lanes.
				p.states[slot].Path = make([]graph.VertexID, 0, p.cfg.WalkLength+1)
			}
			p.states[slot].Start(q)
			p.cohort.Admit(&p.states[slot], &p.rngs[slot], slot)
		}
		if p.cohort.Len() == 0 {
			p.emit = nil
			return p.steps, nil
		}
		if p.stop != nil && p.stop() {
			// Cooperative cancellation checkpoint: shed the remaining steps
			// of every in-flight lane. Walks already emitted stand; the
			// abandoned lanes' partial paths are discarded.
			p.abandon()
			p.emit = nil
			return p.steps, ErrStopped
		}
		if err := p.cohort.Step(nil, nil, p.retireFn); err != nil {
			// Drain the cohort without emitting: lanes must not keep stale
			// State pointers across Runs.
			p.abandon()
			p.emit = nil
			return p.steps, err
		}
	}
}

// abandon empties the cohort after an emit error.
func (p *Pipeline) abandon() {
	for p.cohort.n > 0 {
		p.cohort.remove(0)
	}
	p.resetFree()
}
