package plan

import (
	"fmt"
	"sort"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// Options tune planning. The zero value means stats-only decisions; a
// serving layer that can afford a few milliseconds of probing at start
// sets Calibrate.
type Options struct {
	// Calibrate enables the probe micro-bench; false decides from graph
	// statistics alone.
	Calibrate bool
	// Seed drives probe query generation. All probe state derives from
	// it, so two planners with equal options calibrate identical
	// workloads. 0 means the default seed.
	Seed uint64
	// Queries is the probe batch size per candidate (default 1024). The
	// batch must be large enough that the cohort pipeline reaches steady
	// state — on tiny batches its fill/drain overhead dominates and
	// calibration would systematically misrank it against the flat
	// engine (measured: 192 queries × len 16 inverts the ranking, 512×32
	// and up agrees with the full workload) — while keeping a sweep in
	// the tens of milliseconds.
	Queries int
	// WalkLength pins the probe walk length. 0 (the default) probes at
	// the triggering request's walk length, clamped to probeWalkLenMax —
	// relative engine ranking shifts with walk length (deeper cohorts
	// amortize better on long walks), so probing at the serving length
	// is the faithful measurement; the clamp bounds sweep cost for
	// extreme lengths. Degenerate requests (length 0) probe at
	// defaultProbeWalkLen.
	WalkLength int
	// Repeat is the timed-round count of the calibration sweep (default
	// 3). Rounds are interleaved across candidates — every candidate runs
	// once per round, in candidate order — and each candidate's score is
	// the median of its rounds, so a machine-state drift during the sweep
	// shifts all candidates together instead of penalizing whichever one
	// happened to be measured at the slow moment, and a single
	// scheduling spike cannot crown a loser.
	Repeat int
	// SubgraphEdges bounds the probe graph: graphs with more edges are
	// probed through a degree-proportional sample of this many edges
	// (default 4Mi edges), so candidate session opens stay O(sample)
	// instead of O(E). Negative disables sampling (always probe the
	// real graph).
	SubgraphEdges int64
	// DriftFactor is the online re-plan trigger: once served
	// observations of one batch size (of at least Queries queries)
	// settle, an observed steps/sec EWMA that stays beyond this factor
	// (either direction) of the level that size had when the plan was
	// adopted recalibrates the class (default 2).
	DriftFactor float64
	// MinObservations is how many served batches of one size must be
	// observed before drift can trigger, and how many in a row must then
	// agree (default 8) — re-planning on the first noisy batch would
	// thrash.
	MinObservations int
}

const (
	defaultSeed          = 0x9e3779b97f4a7c15
	defaultProbeQueries  = 1024
	defaultProbeWalkLen  = 40
	probeWalkLenMax      = 128
	defaultProbeRepeat   = 3
	defaultSubgraphEdges = 4 << 20
	defaultDriftFactor   = 2.0
	defaultMinObs        = 8
)

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = defaultSeed
	}
	if o.Queries <= 0 {
		o.Queries = defaultProbeQueries
	}
	if o.Repeat <= 0 {
		o.Repeat = defaultProbeRepeat
	}
	if o.SubgraphEdges == 0 {
		o.SubgraphEdges = defaultSubgraphEdges
	}
	if o.DriftFactor <= 1 {
		o.DriftFactor = defaultDriftFactor
	}
	if o.MinObservations <= 0 {
		o.MinObservations = defaultMinObs
	}
	return o
}

// Probe is one candidate opened for calibration: Step runs the probe
// batch once and returns the observed steps/sec, and Close releases the
// candidate's session. The sweep holds every candidate's probe open at
// once — candidates that share a sampler spec then share one registry
// build for the whole sweep, instead of each probe paying (and GC-ing)
// its own O(E) rebuild — and steps them in interleaved rounds.
type Probe interface {
	Step() (float64, error)
	Close() error
}

// ProbeRunner opens one calibration probe: the candidate's backend on g
// (a real graph or a sampled subgraph) under pcfg, serving the query
// batch. The planner never opens sessions itself — the execution layer
// supplies the runner — which keeps this package free of an exec
// dependency and guarantees every probe goes through the same session
// path (and therefore the same sampler-registry acquire/release
// discipline) as served traffic.
type ProbeRunner func(g *graph.CSR, cand Candidate, pcfg walk.Config, qs []walk.Query, budget int64) (Probe, error)

// ProbeConfig derives the calibration walk configuration for a class
// representative: the caller's algorithm and parameters with the seed
// pinned by the options and the walk length either pinned
// (Options.WalkLength) or taken from the request, clamped. The probe
// workload is a deterministic function of (options, algorithm
// parameters, walk length) — the request influences only dimensions
// that genuinely shift engine ranking.
func ProbeConfig(cfg walk.Config, opts Options) walk.Config {
	o := opts.withDefaults()
	p := cfg
	p.WalkLength = o.WalkLength
	if p.WalkLength <= 0 {
		p.WalkLength = cfg.WalkLength
		if p.WalkLength > probeWalkLenMax {
			p.WalkLength = probeWalkLenMax
		}
		if p.WalkLength <= 0 {
			p.WalkLength = defaultProbeWalkLen
		}
	}
	p.Seed = o.Seed
	return p
}

// calibrate sweeps the candidates for one class on the probe graph and
// returns their measurements. A candidate that fails to open or run is
// recorded with its error and skipped by Decide; calibration as a whole
// fails only when query generation does (no eligible start vertices on
// the probe graph), in which case the caller falls back to stats-only
// planning.
func calibrate(probeG *graph.CSR, fullEdges int64, cfg walk.Config, cons Constraints, opts Options, runner ProbeRunner) ([]Measurement, error) {
	o := opts.withDefaults()
	pcfg := ProbeConfig(cfg, o)
	qs, err := walk.RandomQueries(probeG, pcfg, o.Queries, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("plan: probe workload: %w", err)
	}
	// A budget stated for the full graph is scaled to the probe graph's
	// edge share so hot/cold placement on the sample resembles the real
	// split; the plan itself always carries the unscaled budget.
	budget := cons.MemoryBudgetBytes
	if budget > 0 && fullEdges > 0 {
		if pe := probeG.NumEdges(); pe < fullEdges {
			budget = budget * pe / fullEdges
			if budget < 1<<16 {
				budget = 1 << 16
			}
		}
	}
	cands := Candidates(cons)
	ms := make([]Measurement, len(cands))
	probes := make([]Probe, len(cands))
	defer func() {
		for _, p := range probes {
			if p != nil {
				p.Close()
			}
		}
	}()
	fail := func(i int, err error) {
		ms[i].Err = err.Error()
		if probes[i] != nil {
			probes[i].Close()
			probes[i] = nil
		}
	}
	// Open every candidate up front so samplers are shared for the whole
	// sweep, then one untimed warmup round before the scored rounds.
	for i, c := range cands {
		ms[i].Candidate = c
		p, err := runner(probeG, c, pcfg, qs, budget)
		if err != nil {
			ms[i].Err = err.Error()
			continue
		}
		probes[i] = p
	}
	for i, p := range probes {
		if p == nil {
			continue
		}
		if _, err := p.Step(); err != nil {
			fail(i, err)
		}
	}
	// Timed rounds, interleaved: round r measures every live candidate
	// once, in candidate order, so drift across the sweep moves all of
	// them together. Each candidate keeps the median of its rounds.
	rounds := make([][]float64, len(cands))
	for r := 0; r < o.Repeat; r++ {
		for i, p := range probes {
			if p == nil {
				continue
			}
			sps, err := p.Step()
			if err != nil {
				fail(i, err)
				continue
			}
			rounds[i] = append(rounds[i], sps)
		}
	}
	for i := range ms {
		if ms[i].Err != "" || len(rounds[i]) == 0 {
			continue
		}
		ms[i].StepsPerSec = median(rounds[i])
	}
	return ms, nil
}

// median of a non-empty sample (even counts average the middle pair);
// the input is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
