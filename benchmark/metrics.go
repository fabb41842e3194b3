package main

import (
	"math"
	"sort"
)

// metric is one measured value as it appears in records and on the
// result line. N is the number of samples behind the value (0 for
// counters and computed values).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// spec describes one named metric: its unit, which direction is better
// and, for end-to-end metrics, the regression bound -compare applies.
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen (Abs: an absolute amount instead).
	Bound float64
	Abs   bool
	// Gated metrics are defined and non-zero on every workload, so they
	// form BENCHMARK.json's end_to_end list. The others exist on some
	// workloads only (or are 0 when all is well) and ride in per_layer.
	Gated bool
}

// endToEnd lists the nine end-to-end metrics in reporting order.
var endToEnd = []spec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "msteps_per_s", Unit: "Mstep/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0.02, Abs: true},
	{Name: "goodput_rps", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "fresh_mean_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "mutate_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
}

// bound returns the metric's regression bound on a workload:
// serve-deepwalk-mutate sheds during every epoch switch, so its
// failed_share moves more between identical runs.
func (s spec) bound(workload string) float64 {
	if s.Name == "failed_share" && workload == "serve-deepwalk-mutate" {
		return 0.05
	}
	return s.Bound
}

// perLayer lists the per-layer metrics of a traced run: name, unit and
// the better direction. Every traced run emits all of them; a metric
// whose layer the workload does not exercise reads 0.
var perLayer = []spec{
	{Name: "graph.generate_s", Unit: "s", Better: "lower"},
	{Name: "graph.csr_mb", Unit: "MB", Better: "lower"},
	{Name: "graph.gather_mrows_per_s", Unit: "Mrow/s", Better: "higher"},
	{Name: "graph.gather_mlp_mrows_per_s", Unit: "Mrow/s", Better: "higher"},
	{Name: "graph.bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "graph.hasedge_mops_per_s", Unit: "Mop/s", Better: "higher"},
	{Name: "graph.mutate_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "graph.overlay_dirty_rows", Unit: "count", Better: "lower"},
	{Name: "rng.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "sampling.uniform_draw_ns", Unit: "ns", Better: "lower"},
	{Name: "sampling.rejection_draw_ns", Unit: "ns", Better: "lower"},
	{Name: "sampling.rejection_trips_per_draw", Unit: "ratio", Better: "lower"},
	{Name: "sampling.alias_draw_ns", Unit: "ns", Better: "lower"},
	{Name: "sampling.alias_build_s", Unit: "s", Better: "lower"},
	{Name: "sampling.alias_mb", Unit: "MB", Better: "lower"},
	{Name: "sampling.alias_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.run_msteps_per_s", Unit: "Mstep/s", Better: "higher"},
	{Name: "walk.pipeline_msteps_per_s.c1", Unit: "Mstep/s", Better: "higher"},
	{Name: "walk.pipeline_msteps_per_s.c16", Unit: "Mstep/s", Better: "higher"},
	{Name: "walk.pipeline_msteps_per_s.c64", Unit: "Mstep/s", Better: "higher"},
	{Name: "walk.steps_per_walk", Unit: "steps", Better: "higher"},
	{Name: "walk.allocs_per_step", Unit: "ratio", Better: "lower"},
	{Name: "shard.engine_msteps_per_s.s2", Unit: "Mstep/s", Better: "higher"},
	{Name: "shard.migrations_per_step", Unit: "ratio", Better: "lower"},
	{Name: "shard.ring_stalls", Unit: "count", Better: "lower"},
	{Name: "exec.open_ms.auto", Unit: "ms", Better: "lower"},
	{Name: "exec.open_ms.cpu", Unit: "ms", Better: "lower"},
	{Name: "exec.open_ms.cpu-pipelined", Unit: "ms", Better: "lower"},
	{Name: "exec.run_msteps_per_s.auto", Unit: "Mstep/s", Better: "higher"},
	{Name: "exec.run_msteps_per_s.cpu", Unit: "Mstep/s", Better: "higher"},
	{Name: "exec.run_msteps_per_s.cpu-pipelined", Unit: "Mstep/s", Better: "higher"},
	{Name: "exec.run_msteps_per_s.cpu-sharded", Unit: "Mstep/s", Better: "higher"},
	{Name: "exec.run_msteps_per_s.cpu-tiered", Unit: "Mstep/s", Better: "higher"},
	{Name: "exec.stream_msteps_per_s.auto", Unit: "Mstep/s", Better: "higher"},
	{Name: "exec.run64_p50_ms.auto", Unit: "ms", Better: "lower"},
	{Name: "plan.planfor_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.regret", Unit: "ratio", Better: "lower"},
	{Name: "plan.recalibrations", Unit: "count", Better: "lower"},
	{Name: "admit.admit_release_ns", Unit: "ns", Better: "lower"},
	{Name: "admit.budget_queries", Unit: "count", Better: "higher"},
	{Name: "admit.service_rate_qps", Unit: "1/s", Better: "higher"},
	{Name: "admit.shed_share", Unit: "share", Better: "lower"},
	{Name: "admit.shed_p99_us", Unit: "us", Better: "lower"},
	{Name: "service.submit_p50_ms.c1", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.sat_rps.unbudgeted", Unit: "1/s", Better: "higher"},
	{Name: "service.queries_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "service.epoch_switch_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stream_msteps_per_s", Unit: "Mstep/s", Better: "higher"},
	{Name: "service.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice, 0 when it is empty. With fewer than 100/(100-p)
// samples the result is the maximum, which is what the batch workloads
// report as lat_p99_ms.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what the driver's spread check uses. It needs at least two values;
// with fewer all three equal the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// mean returns the arithmetic mean of xs, 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(seconds float64) float64 { return seconds * 1e3 }
