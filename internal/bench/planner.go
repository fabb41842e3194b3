package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ridgewalker/internal/exec"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

func init() {
	register(Experiment{ID: "planner", Title: "Auto-planner regret vs best hand-picked configuration",
		Run: func(c *Context, w io.Writer) error {
			rep, err := RunPerf(c)
			if err != nil {
				return err
			}
			return WritePlannerTable(rep, w)
		}})
}

// PlannerRecord is one {algorithm × GOMAXPROCS} cell of the planner
// sweep: the "auto" backend calibrates, picks a configuration, and runs
// the full workload; the cell's regret is how far that lands below the
// best hand-picked configuration, re-measured PAIRED with the auto run
// (interleaved rounds, medians — see plannerCell) so machine-speed
// drift across the sweep cancels out of the ratio. The reference set
// includes the pinned cpu-sharded rows, so a cell a sharded pin wins by
// more than the regret cap fails the gate.
type PlannerRecord struct {
	Algorithm  string `json:"algorithm"`
	Graph      string `json:"graph"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Chosen renders the planner's resolved configuration ("cpu-pipelined
	// c64"); ChosenBackend/ChosenCohort are its parts, split out so gates
	// match shapes without string parsing; PlanSource records how the
	// decision was made.
	Chosen        string `json:"chosen"`
	ChosenBackend string `json:"chosen_backend"`
	ChosenCohort  int    `json:"chosen_cohort,omitempty"`
	PlanSource    string `json:"plan_source"`
	// PredictedStepsPerSec is the calibration probe's estimate;
	// AutoStepsPerSec the realized full-workload throughput (median over
	// the paired rounds).
	PredictedStepsPerSec float64 `json:"predicted_steps_per_sec"`
	AutoStepsPerSec      float64 `json:"auto_steps_per_sec"`
	// BestManual names the fastest hand-picked perf-sweep configuration
	// for the same cell (non-tiered, non-hub records only);
	// BestManualStepsPerSec is its PAIRED re-measurement against the
	// auto session, not the sweep number.
	BestManualStepsPerSec float64 `json:"best_manual_steps_per_sec"`
	BestManual            string  `json:"best_manual"`
	// Regret is (best − auto)/best over the paired medians, clamped at 0
	// when auto wins outright.
	Regret float64 `json:"regret"`
}

const (
	// plannerMaxRounds bounds the paired rounds; plannerRoundBudget is
	// the wall-clock past which no extra rounds beyond the repeat floor
	// are added.
	plannerMaxRounds   = 15
	plannerRoundBudget = 6 * time.Second
)

// plannerCell measures one {algorithm × procs} regret cell. The sweep's
// records name the cell's best hand-picked configuration; the cell then
// prices auto against that reference with a PAIRED measurement — both
// sessions open at once, timed runs alternating auto/manual round by
// round, medians over the rounds — instead of comparing against the
// sweep numbers gathered minutes earlier. On a shared runner the
// machine's speed drifts by tens of percent across a sweep, which is
// larger than the real gap between the top engines; pairing makes both
// sides see the same machine moments so the drift cancels, and the
// sweep's winner's-curse inflation (its "best" is a max over many
// best-of-N measurements) never enters the regret at all.
//
// rep.Records must already contain the cell's sweep records (tiered and
// hub records are excluded — they run a different workload or a memory
// constraint the planner cell does not).
func plannerCell(rep *PerfReport, name string, g *graph.CSR, wcfg walk.Config, qs []walk.Query, repeat int) (PlannerRecord, error) {
	if repeat < 1 {
		repeat = 1
	}
	procs := runtime.GOMAXPROCS(0)
	// The cell's reference configuration, from the sweep records measured
	// on the same queries.
	var best *PerfRecord
	for i := range rep.Records {
		r := &rep.Records[i]
		if r.Algorithm != wcfg.Algorithm.String() || r.GoMaxProcs != procs ||
			r.MemBudget != 0 || r.HubWorkload {
			continue
		}
		if best == nil || r.StepsPerSec > best.StepsPerSec {
			best = r
		}
	}
	auto, err := exec.Open("auto", g, exec.Config{
		Walk: wcfg, DiscardPaths: true,
		Plan: &plan.Options{Calibrate: true},
	})
	if err != nil {
		return PlannerRecord{}, err
	}
	defer auto.Close()
	reporter, ok := auto.(exec.PlanReporter)
	if !ok {
		return PlannerRecord{}, fmt.Errorf("bench: auto session reports no plan")
	}
	pr := reporter.PlanReport()
	chosen := plan.Candidate{Backend: pr.Backend, Cohort: pr.Cohort}
	rec := PlannerRecord{
		Algorithm:            wcfg.Algorithm.String(),
		Graph:                name,
		GoMaxProcs:           procs,
		Chosen:               chosen.String(),
		ChosenBackend:        pr.Backend,
		ChosenCohort:         pr.Cohort,
		PlanSource:           pr.Source,
		PredictedStepsPerSec: pr.PredictedStepsPerSec,
	}
	if best == nil {
		// No reference to pair against; the gate skips the cell.
		return rec, nil
	}
	rec.BestManual = best.configName()
	manual, err := exec.Open(best.Backend, g, exec.Config{
		Walk: wcfg, Shards: best.Shards, Cohort: best.Cohort, DiscardPaths: true,
	})
	if err != nil {
		return PlannerRecord{}, err
	}
	defer manual.Close()
	warm := len(qs) / 10
	if warm < 1 {
		warm = 1
	}
	ctx := context.Background()
	timed := func(ses exec.Session) (float64, error) {
		start := time.Now()
		res, err := ses.Run(ctx, exec.Batch{Queries: qs})
		el := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		if el <= 0 || res.Steps == 0 {
			return 0, fmt.Errorf("bench: planner cell run took no steps")
		}
		return float64(res.Steps) / el, nil
	}
	for _, ses := range []exec.Session{auto, manual} {
		if _, err := ses.Run(ctx, exec.Batch{Queries: qs[:warm]}); err != nil {
			return PlannerRecord{}, err
		}
	}
	// Round count adapts to workload speed: at least repeat rounds, and
	// fast cells keep pairing until the time budget is spent (capped) —
	// a 25ms URW run gets 9 medians for the price of noise, while a
	// multi-second Node2Vec run stops at the floor. Within a round the
	// two sides alternate who goes first: with a fixed order, periodic
	// machine effects (GC cycles near the pair period) land on one slot
	// systematically — measured as ~8% "regret" between two sessions of
	// the IDENTICAL configuration — and flipping the order each round
	// turns that bias into noise the medians absorb.
	autoRounds := make([]float64, 0, plannerMaxRounds)
	manualRounds := make([]float64, 0, plannerMaxRounds)
	start := time.Now()
	for i := 0; i < repeat || (i < plannerMaxRounds && time.Since(start) < plannerRoundBudget); i++ {
		first, second := auto, manual
		if i%2 == 1 {
			first, second = manual, auto
		}
		f, err := timed(first)
		if err != nil {
			return PlannerRecord{}, err
		}
		s, err := timed(second)
		if err != nil {
			return PlannerRecord{}, err
		}
		a, m := f, s
		if i%2 == 1 {
			a, m = s, f
		}
		autoRounds = append(autoRounds, a)
		manualRounds = append(manualRounds, m)
	}
	rec.AutoStepsPerSec = median(autoRounds)
	rec.BestManualStepsPerSec = median(manualRounds)
	// Regret is the median of the per-round auto/manual ratios, not the
	// ratio of the medians: each round's ratio cancels that round's
	// machine speed, so rounds measured under different external load
	// never mix into a phantom gap. And when auto resolved to exactly
	// the shape the sweep crowned, regret is zero by definition — the
	// pairing then compares two sessions of the identical configuration,
	// which can only measure noise, never a planning mistake.
	if pr.Backend == best.Backend && pr.Cohort == best.Cohort {
		return rec, nil
	}
	ratios := make([]float64, len(autoRounds))
	for i := range autoRounds {
		ratios[i] = autoRounds[i] / manualRounds[i]
	}
	if r := median(ratios); r < 1 {
		rec.Regret = 1 - r
	}
	return rec, nil
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

// WritePlannerTable renders the regret cells.
func WritePlannerTable(rep *PerfReport, w io.Writer) error {
	t := newTable(w, fmt.Sprintf("Auto-planner regret — %s, %d queries × len %d",
		rep.Graph, rep.Queries, rep.WalkLength))
	t.row("alg", "procs", "chosen", "source", "auto MStep/s", "best manual", "manual MStep/s", "regret")
	for _, p := range rep.Planner {
		t.row(p.Algorithm, p.GoMaxProcs, p.Chosen, p.PlanSource,
			p.AutoStepsPerSec/1e6, p.BestManual, p.BestManualStepsPerSec/1e6,
			fmt.Sprintf("%.1f%%", 100*p.Regret))
	}
	return t.flush()
}
