package bench

import (
	"fmt"
	"sort"
)

// ComparePerf diffs a freshly measured PerfReport against a checked-in
// baseline and reports throughput regressions: every baseline record with
// a matching fresh record (same graph, workload, backend, algorithm,
// shards, cohort, and GOMAXPROCS) whose fresh throughput falls more than
// tol below the baseline produces one regression line. It returns the
// regression descriptions (empty means pass) and the number of record
// pairs actually compared — callers should treat zero comparisons as a
// configuration mismatch, not a pass.
//
// By default throughput is compared in cpu-normalized form: each
// record's steps/sec is divided by the same report's flat-cpu record for
// the same algorithm and GOMAXPROCS before comparison, so absolute
// machine speed cancels out and the gate is meaningful across runner
// generations (a shared-CI runner being 2× slower than the baseline
// machine does not fail the build, the sharded backend regressing
// relative to cpu does). absolute switches to raw steps/sec comparison
// for same-machine trend tracking.
func ComparePerf(baseline, fresh *PerfReport, tol float64, absolute bool) (regressions []string, compared int) {
	if tol <= 0 {
		tol = 0.15
	}
	type key struct {
		graph      string
		queries    int
		walkLength int
		backend    string
		algorithm  string
		shards     int
		cohort     int
		procs      int
		tiered     bool
		hub        bool
	}
	recKey := func(rep *PerfReport, r PerfRecord) key {
		return key{
			graph:      r.Graph,
			queries:    rep.Queries,
			walkLength: rep.WalkLength,
			backend:    r.Backend,
			algorithm:  r.Algorithm,
			shards:     r.Shards,
			cohort:     r.Cohort,
			procs:      r.GoMaxProcs,
			// Budget-constrained (tiered) records compare only against
			// tiered records; the budget value itself is auto-derived from
			// the graph, so the bool is the stable part of the identity.
			tiered: r.MemBudget != 0,
			hub:    r.HubWorkload,
		}
	}
	// cpuBase indexes each report's flat-cpu throughput per (algorithm,
	// procs, workload) for normalization — hub-workload records normalize
	// against the hub-workload cpu run, which walks different traffic.
	cpuBase := func(rep *PerfReport) map[[3]interface{}]float64 {
		m := map[[3]interface{}]float64{}
		for _, r := range rep.Records {
			if r.Backend == "cpu" && r.Shards == 0 && r.MemBudget == 0 {
				m[[3]interface{}{r.Algorithm, r.GoMaxProcs, r.HubWorkload}] = r.StepsPerSec
			}
		}
		return m
	}
	baseCPU, freshCPU := cpuBase(baseline), cpuBase(fresh)
	value := func(r PerfRecord, cpu map[[3]interface{}]float64) (float64, bool) {
		if absolute {
			return r.StepsPerSec, true
		}
		if r.Backend == "cpu" && r.Shards == 0 && r.MemBudget == 0 {
			// The normalization anchor is 1.0 by construction; nothing to
			// compare in normalized mode.
			return 0, false
		}
		b := cpu[[3]interface{}{r.Algorithm, r.GoMaxProcs, r.HubWorkload}]
		if b <= 0 {
			return 0, false
		}
		return r.StepsPerSec / b, true
	}
	freshByKey := map[key]PerfRecord{}
	for _, r := range fresh.Records {
		freshByKey[recKey(fresh, r)] = r
	}
	var missing []string
	for _, br := range baseline.Records {
		fr, ok := freshByKey[recKey(baseline, br)]
		if !ok {
			// Record the gap instead of silently narrowing coverage: a
			// configuration dropped from the sweep would otherwise exit
			// the gate unnoticed while the remaining matches keep CI
			// green. Reported as a regression only when the workloads
			// otherwise overlap (compared > 0) — fully disjoint reports
			// are the caller's compared==0 mismatch case.
			missing = append(missing, fmt.Sprintf(
				"%s %s p%d: present in baseline but missing from the fresh report (configuration dropped from the sweep?)",
				br.configName(), br.Algorithm, br.GoMaxProcs))
			continue
		}
		bv, bok := value(br, baseCPU)
		fv, fok := value(fr, freshCPU)
		if !bok || !fok {
			continue
		}
		compared++
		if fv < bv*(1-tol) {
			unit := "×cpu"
			if absolute {
				unit = "steps/s"
			}
			regressions = append(regressions, fmt.Sprintf(
				"%s %s p%d: %.3g %s → %.3g %s (%.1f%% drop, tolerance %.0f%%)",
				br.configName(), br.Algorithm, br.GoMaxProcs,
				bv, unit, fv, unit, 100*(1-fv/bv), 100*tol))
		}
	}
	if compared > 0 {
		regressions = append(regressions, missing...)
	}
	if msg := compareMutation(baseline, fresh); msg != "" {
		regressions = append(regressions, msg)
		compared++
	}
	pmsgs, pcompared := comparePlanner(baseline, fresh)
	regressions = append(regressions, pmsgs...)
	compared += pcompared
	smsgs, scompared := compareServe(baseline, fresh)
	regressions = append(regressions, smsgs...)
	compared += scompared
	sort.Strings(regressions)
	return regressions, compared
}

// mutationMinSpeedup is the hard floor on the incremental-maintenance
// advantage (cold rebuild latency over incremental derive latency). The
// number prices the structural claim, not the machine: rebuilding ~100
// dirty rows of a million-edge store runs orders of magnitude faster
// than the O(E) cold build, so any honest implementation clears 5× with
// a huge margin, while an implementation that silently degraded to O(E)
// maintenance sits at ~1×. A relative tolerance would be the wrong gate
// here — the ratio of a µs-scale to an ms-scale measurement jitters far
// more run-to-run than the throughput records do.
const mutationMinSpeedup = 5.0

// compareMutation gates the dynamic-graph maintenance record: present in
// the baseline means the fresh report must carry it too, and its
// incremental speedup must clear the structural floor.
func compareMutation(baseline, fresh *PerfReport) string {
	bm := baseline.Mutation
	if bm == nil {
		return ""
	}
	fm := fresh.Mutation
	if fm == nil {
		return "mutation: present in baseline but missing from the fresh report (measurement dropped from the sweep?)"
	}
	if fm.Speedup < mutationMinSpeedup {
		return fmt.Sprintf(
			"mutation: incremental sampler maintenance %.1fx over cold rebuild (floor %.0fx) — dirty-row rebuild has degraded toward O(E)",
			fm.Speedup, mutationMinSpeedup)
	}
	return ""
}

// plannerMaxRegret caps how far the "auto" backend may fall below the
// best hand-picked configuration in any {algorithm × procs} cell: 10%,
// the acceptance criterion. Like the mutation floor, this is a gate on
// the fresh report alone — regret is already a within-run ratio, so
// machine speed cancels out by construction and no baseline record is
// needed to evaluate it.
const plannerMaxRegret = 0.10

// comparePlanner gates the planner cells: present in the baseline means
// the fresh report must carry them too, and each fresh cell's regret
// must stay under the cap. The planner never picks a sharded shape, so a
// cell where a pinned cpu-sharded row wins by more than the cap fails
// here.
func comparePlanner(baseline, fresh *PerfReport) (msgs []string, compared int) {
	if len(baseline.Planner) > 0 && len(fresh.Planner) == 0 {
		return []string{"planner: cells present in baseline but missing from the fresh report (sweep dropped?)"}, 1
	}
	for _, p := range fresh.Planner {
		if p.BestManualStepsPerSec <= 0 {
			continue
		}
		compared++
		if p.Regret > plannerMaxRegret {
			msgs = append(msgs, fmt.Sprintf(
				"planner %s p%d: auto chose %s at %.3g steps/s, best manual %s at %.3g — %.1f%% regret (cap %.0f%%)",
				p.Algorithm, p.GoMaxProcs, p.Chosen, p.AutoStepsPerSec,
				p.BestManual, p.BestManualStepsPerSec, 100*p.Regret, 100*plannerMaxRegret))
		}
	}
	return msgs, compared
}

// Serving-gate constants. Like the planner regret cap, these gate the
// fresh report alone — every number is a within-run ratio, so machine
// speed cancels out and no baseline value is compared. The baseline's
// role is presence detection: a baseline with a serve section pins the
// measurement into every future report.
const (
	// serveOverloadFactor is the acceptance operating point: 2× the
	// measured saturation load.
	serveOverloadFactor = 2.0
	// serveGoodputTolerance bounds how far admitted goodput at the
	// overload point may fall below the saturation-point goodput (the
	// acceptance criterion's 15%): overload must shed the excess, not
	// collapse the work that was admitted.
	serveGoodputTolerance = 0.15
	// serveShedLatencyRatio caps shed-rejection p99 as a fraction of the
	// admitted p50 at the same overload point — "fail fast" means a
	// rejection costs well under what being served costs under that
	// load. A rejection is a mutex check (its p50 is microseconds); its
	// p99 is what the scheduler adds once the admitted work saturates
	// the cores, which the admitted requests beside it pay too. 0.5 is a
	// loose structural gate, not a tuned threshold.
	serveShedLatencyRatio = 0.5
	// serveMinShedSamples is the minimum shed count for the fail-fast
	// latency gate: a p99 over a handful of samples is noise.
	serveMinShedSamples = 5
)

// compareServe gates the serving measurement: present in the baseline
// means the fresh report must carry it too; at 2× saturation the fresh
// run must actually shed, hold admitted goodput within tolerance of the
// saturation point, and reject at well under one service time.
func compareServe(baseline, fresh *PerfReport) (msgs []string, compared int) {
	if baseline.Serve == nil {
		return nil, 0
	}
	fs := fresh.Serve
	if fs == nil {
		return []string{"serve: present in baseline but missing from the fresh report (harness dropped from the sweep?)"}, 1
	}
	point := func(rec *ServeRecord, f float64) *ServePoint {
		for i := range rec.Points {
			if rec.Points[i].LoadFactor == f {
				return &rec.Points[i]
			}
		}
		return nil
	}
	over := point(fs, serveOverloadFactor)
	sat := point(fs, 1.0)
	if over == nil || sat == nil {
		return []string{fmt.Sprintf("serve: fresh report lacks the 1.0x/%.1fx load points", serveOverloadFactor)}, 1
	}
	compared++
	if over.Shed == 0 {
		msgs = append(msgs, fmt.Sprintf(
			"serve: no requests shed at %.0fx saturation (offered %.0f rps, %d admitted) — admission control is not engaging under overload",
			serveOverloadFactor, over.OfferedRPS, over.Admitted))
	}
	if sat.GoodputRPS > 0 && over.GoodputRPS < sat.GoodputRPS*(1-serveGoodputTolerance) {
		msgs = append(msgs, fmt.Sprintf(
			"serve: goodput at %.0fx load is %.0f rps, %.1f%% below the saturation point's %.0f rps (tolerance %.0f%%) — overload is collapsing admitted work instead of shedding excess",
			serveOverloadFactor, over.GoodputRPS, 100*(1-over.GoodputRPS/sat.GoodputRPS),
			sat.GoodputRPS, 100*serveGoodputTolerance))
	}
	if over.Shed >= serveMinShedSamples && over.P50MS > 0 && over.ShedP99MS >= over.P50MS*serveShedLatencyRatio {
		msgs = append(msgs, fmt.Sprintf(
			"serve: shed p99 %.3f ms at %.0fx load vs admitted p50 %.3f ms — rejections are not failing fast (cap %.0f%% of a service time)",
			over.ShedP99MS, serveOverloadFactor, over.P50MS, 100*serveShedLatencyRatio))
	}
	return msgs, compared
}
