package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"ridgewalker"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/walk"
)

// Fixed sizes and rates of the workloads. README.md says why each was
// chosen; changing one changes what every recorded baseline means.
const (
	requestQueries   = 64   // walks per serving request
	querySets        = 256  // distinct pre-generated requests
	lightRate        = 150  // req/s: well under capacity, latency is overhead
	heavyRate        = 2400 // req/s: above what the service completes today
	lightShare       = 0.55 // of -seconds spent in the light phase
	latencyLimit     = 20 * time.Millisecond
	mutatePeriod     = 36 * time.Second / lightRate // 240 ms: a whole number of read intervals
	mutateEdges      = 64
	maxOutstanding   = 4096 // open-loop cap on requests in flight
	warmRequests     = 200  // closed-loop requests that end a service's set-up
	verifyEvery      = 50   // every n-th request's paths are checked
	verifyPaths      = 1024 // paths of the first batch that are checked
	setupReps        = 3    // set-ups per run; setup_s is their median
	batchPool        = 16   // pre-generated query batches, reused with fresh IDs
	sessionsPerShare = 5    // sessions each share of a batch workload's measured time is spread over
)

// workload is one fixed traffic mix.
type workload struct {
	name string
	why  string
	alg  walk.Algorithm
	// serve runs through Service.Submit, otherwise through Session.Run.
	serve bool
	// mutate adds the edge mutator; it implies a weighted graph.
	mutate bool
	// scaleOffset is added to -scale for this workload's graph.
	scaleOffset int
	// batch is the queries per Session.Run call of a batch workload.
	batch int
}

var workloads = []workload{
	{name: "batch-urw", alg: walk.URW, batch: 65536,
		why: "offline corpus generation: one uniform draw per hop, so nearly all time is stepping over random CSR rows"},
	{name: "batch-node2vec", alg: walk.Node2Vec, batch: 16384,
		why: "second-order walks: rejection sampling and HasEdge probes do most of each hop, row gathering little"},
	{name: "serve-urw", alg: walk.URW, serve: true,
		why: "64-walk requests under a light then an overloading open loop: service overhead and admission decide the result"},
	{name: "serve-deepwalk-mutate", alg: walk.DeepWalk, serve: true, mutate: true, scaleOffset: -2,
		why: "weighted reads beside edge mutations: epoch switches, incremental alias rebuilds and session churn"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one run's parameters.
type options struct {
	seed    uint64
	seconds float64
	scale   int
	traced  bool
	// smoke is set by the smoke test only: a tenth of every fixed
	// repetition count and mutations 10x as often, so that phases of
	// 200 ms still see every kind of event.
	smoke bool
}

// n is a fixed repetition count as this run uses it.
func (o options) n(full int) int {
	if o.smoke {
		return max(1, full/10)
	}
	return full
}

// environment labels a record with the host and build it came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	RSSReset   bool   `json:"rss_reset"`
}

// record is everything one run reports. EndToEnd holds the end-to-end
// metrics the workload defines; PerLayer is filled by traced runs.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Scale     int                `json:"scale"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"env"`
	Phases    map[string]float64 `json:"phases_s"`
	Plan      any                `json:"plan,omitempty"`
	Admission any                `json:"admission,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checked   int                `json:"paths_checked"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	spans     []span
}

func (r *record) e2e(name string, value float64, n int) {
	r.EndToEnd[name] = metric{Value: value, Unit: unitOf(endToEnd, name), N: n}
}

func (r *record) layer(name string, value float64, n int) {
	r.PerLayer[name] = metric{Value: value, Unit: unitOf(perLayer, name), N: n}
}

// unitOf looks a metric up in its table; reporting one the table does
// not name is a bug in the benchmark.
func unitOf(specs []spec, name string) string {
	for _, s := range specs {
		if s.Name == name {
			return s.Unit
		}
	}
	panic("benchmark: unknown metric " + name)
}

// run carries one workload run's state between its stages.
type run struct {
	w    workload
	o    options
	tr   *tracer
	root int
	rec  *record

	g    *graph.CSR
	cfg  walk.Config
	pool []walk.Query   // batch: batchPool batches; serve: querySets requests
	sets [][]walk.Query // serve: the pool split into its requests
}

// runWorkload generates the workload's inputs from the seed, sets the
// system up, measures for o.seconds, checks the outputs and, when
// traced, times each layer on the same inputs.
func runWorkload(w workload, o options, env environment) (*record, error) {
	r := &run{w: w, o: o, rec: &record{
		Workload: w.name, Seed: o.seed, Scale: o.scale + w.scaleOffset, Seconds: o.seconds,
		Traced: o.traced, Env: env, Phases: map[string]float64{},
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}}
	if o.traced {
		r.tr = newTracer()
	}
	r.root = r.tr.begin(w.name, 0, -1)
	if err := r.generate(); err != nil {
		return nil, err
	}
	var err error
	if w.serve {
		err = r.serve()
	} else {
		err = r.batch()
	}
	if err != nil {
		return nil, err
	}
	if o.traced {
		if err := r.probes(); err != nil {
			return nil, err
		}
	}
	r.tr.end(r.root)
	r.rec.spans = r.tr.snapshot()
	if o.traced {
		measured := r.rec.Phases["measure"]
		r.rec.layer("trace.spans", float64(len(r.rec.spans)), 0)
		r.rec.layer("trace.overhead_share", float64(len(r.rec.spans))*recordCost().Seconds()/measured, 0)
	}
	return r.rec, nil
}

// generate builds the graph and the query pool from the seed. It is
// input generation, reported as graph.generate_s and kept out of setup_s.
func (r *run) generate() error {
	sp := r.tr.begin("generate", r.root, -1)
	defer r.tr.end(sp)
	start := time.Now()
	g, err := graph.GenerateRMAT(graph.Graph500(r.rec.Scale, 16, r.o.seed))
	if err != nil {
		return err
	}
	if r.w.mutate {
		g.AttachWeights()
	}
	r.rec.layer("graph.generate_s", time.Since(start).Seconds(), 1)
	r.g = g
	r.cfg = walk.DefaultConfig(r.w.alg)
	r.cfg.Seed = r.o.seed
	n := querySets * requestQueries
	if !r.w.serve {
		// Smoke runs on tiny graphs keep their batches proportionally
		// small; at the default scale the cap is far above the batch.
		r.w.batch = min(r.w.batch, 4*g.NumVertices)
		n = batchPool * r.w.batch
	}
	if r.pool, err = walk.RandomQueries(g, r.cfg, n, r.o.seed); err != nil {
		return err
	}
	if r.w.serve {
		r.sets = make([][]walk.Query, querySets)
		for i := range r.sets {
			r.sets[i] = r.pool[i*requestQueries : (i+1)*requestQueries : (i+1)*requestQueries]
		}
	}
	return nil
}

// batchQueries returns the queries of batch b. The pool holds batchPool
// batches with distinct IDs; each later pass over the pool shifts every
// ID past all IDs used so far, so no batch repeats a trajectory.
func (r *run) batchQueries(b int) []walk.Query {
	n := r.w.batch
	slot := b % batchPool
	qs := r.pool[slot*n : (slot+1)*n]
	if b >= batchPool {
		for i := range qs {
			qs[i].ID += uint32(len(r.pool))
		}
	}
	return qs
}

// coldStarts is the skeleton of every run: setupReps cold starts, each
// timed (setup_s is their median) and then given an equal share of the
// measured time before it is closed. A start is cold because the one
// before it is closed first, which releases its samplers, sessions and
// plans. Measuring on every start, not on one, matters: what a start
// decides (the engine's memory layout, a calibrated plan) holds for its
// lifetime and differs from start to start, so one start per run would
// measure the draw, not the system. The resident-set high-water mark
// restarts before the first start, after the earlier garbage is returned.
func coldStarts[T io.Closer](r *run, setup func(parent int) (T, error), measure func(sys T, sh share) error) (setups []float64, err error) {
	reps := r.o.n(setupReps)
	each := time.Duration(r.o.seconds / float64(reps) * float64(time.Second))
	for rep := 0; rep < reps; rep++ {
		debug.FreeOSMemory()
		if rep == 0 {
			r.rec.Env.RSSReset = resetPeakRSS()
		}
		sp := r.tr.begin("setup", r.root, -1)
		start := time.Now()
		sys, err := setup(sp)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		msp := r.tr.begin("measure", r.root, -1)
		err = measure(sys, share{rep: rep, dur: each, span: msp})
		r.tr.end(msp)
		sys.Close()
		if err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// share is one cold start's part of the measured time: which start it
// belongs to, how long it lasts and the span its work is recorded under.
type share struct {
	rep  int
	dur  time.Duration
	span int
}

// sessionSlot holds the session a batch share is running on, which
// changes while the share lasts.
type sessionSlot struct{ ridgewalker.Session }

// batch runs a batch workload: repeated Session.Run calls on sessions
// OpenBackend("auto") plans, for o.seconds in all.
func (r *run) batch() error {
	ctx := context.Background()
	// The warm-up batch has the size of a measured batch but IDs no
	// measured batch uses.
	warm := append([]walk.Query(nil), r.pool[:r.w.batch]...)
	for i := range warm {
		warm[i].ID = ^warm[i].ID
	}
	open := func(parent int) (ridgewalker.Session, error) {
		sp := r.tr.begin("open", parent, -1)
		defer r.tr.end(sp)
		return ridgewalker.OpenBackend("auto", r.g, ridgewalker.BackendConfig{Walk: r.cfg})
	}
	firstQueries := append([]walk.Query(nil), r.pool[:min(verifyPaths, r.w.batch)]...)
	var firstPaths [][]graph.VertexID
	var lats []float64
	var hops int64
	var busy time.Duration
	attempted, failed := 0, 0

	setups, err := coldStarts(r, func(parent int) (*sessionSlot, error) {
		ses, err := open(parent)
		if err != nil {
			return nil, err
		}
		wsp := r.tr.begin("warmup", parent, -1)
		defer r.tr.end(wsp)
		if _, err := ses.Run(ctx, ridgewalker.Batch{Queries: warm}); err != nil {
			ses.Close()
			return nil, err
		}
		return &sessionSlot{ses}, nil
	}, func(slot *sessionSlot, sh share) error {
		// A sharded session's speed is drawn when it is opened (README,
		// finding 1), so each share is spread over sessionsPerShare
		// sessions. Re-opening is not timed: set-up has its own metric.
		start, session := time.Now(), 0
		for time.Since(start) < sh.dur {
			if due := int(time.Since(start) * sessionsPerShare / sh.dur); due > session {
				session = due
				slot.Close()
				ses, err := open(sh.span)
				if err != nil {
					return err
				}
				slot.Session = ses
			}
			qs := r.batchQueries(attempted)
			sp := r.tr.begin("run", sh.span, int64(attempted))
			t := time.Now()
			res, err := slot.Run(ctx, ridgewalker.Batch{Queries: qs})
			lat := time.Since(t)
			r.tr.end(sp)
			attempted++
			if err != nil || len(res.Paths) != len(qs) {
				failed++
				continue
			}
			busy += lat
			lats = append(lats, ms(lat.Seconds()))
			hops += res.Steps
			if attempted == 1 {
				firstPaths = append(firstPaths, res.Paths[:len(firstQueries)]...)
				if pr, ok := ridgewalker.SessionPlan(slot.Session); ok {
					r.rec.Plan = pr
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	peak := peakRSSMB()

	vsp := r.tr.begin("verify", r.root, -1)
	ref, err := walk.Run(r.g, firstQueries, r.cfg)
	r.tr.end(vsp)
	if err != nil {
		return err
	}
	mismatched := 0
	if len(firstPaths) == len(ref.Paths) {
		for i := range ref.Paths {
			if !slices.Equal(firstPaths[i], ref.Paths[i]) {
				mismatched++
			}
		}
	} else {
		mismatched = len(ref.Paths)
	}
	if mismatched > 0 {
		failed++
	}

	rec := r.rec
	rec.Phases["measure"] = r.o.seconds
	rec.Phases["run"] = busy.Seconds()
	rec.Correct = mismatched == 0
	rec.Attempted, rec.Failed, rec.Checked = attempted, failed, len(ref.Paths)
	sorted := sortedCopy(lats)
	rec.e2e("setup_s", median(setups), len(setups))
	rec.e2e("msteps_per_s", float64(hops)/busy.Seconds()/1e6, len(lats))
	rec.e2e("peak_rss_mb", peak, 1)
	rec.e2e("lat_p50_ms", percentile(sorted, 50), len(lats))
	rec.e2e("lat_p99_ms", percentile(sorted, 99), len(lats))
	rec.e2e("failed_share", float64(failed)/float64(attempted), attempted)
	return nil
}

// How one request of an open loop ended.
const (
	good    = iota // completed within latencyLimit
	late           // completed, but later than latencyLimit after it was due
	shed           // refused at admission (ErrOverloaded)
	errored        // any other error
	dropped        // not sent: the generator's outstanding cap was reached
)

// request is the outcome of one open-loop request.
type request struct {
	due      time.Time
	sentLate time.Duration // how late the generator started it
	lat      time.Duration // completion minus due time
	callLat  time.Duration // completion minus actual start
	steps    int64
	class    int
	// Sampled requests keep their paths and the graph epochs seen just
	// before and just after the call, for the correctness check.
	res    *ridgewalker.Result
	e0, e1 uint64
	rep    int // which cold start's service served it
}

// mutation is one InsertEdges or DeleteEdges call of the mutator.
type mutation struct {
	insert bool
	edges  []graph.Edge
	end    time.Time
	lat    time.Duration
	err    error
	rep    int // which cold start's service it mutated
}

// setupService builds a service the way users of the workload do and
// warms it with a fixed number of closed-loop requests, so the first
// timed request meets resolved plans, built samplers and cached sessions.
func (r *run) setupService(parent int) (*ridgewalker.Service, error) {
	osp := r.tr.begin("open", parent, -1)
	svc, err := ridgewalker.NewService(r.g, ridgewalker.ServiceConfig{MaxInFlight: ridgewalker.AutoInFlight})
	r.tr.end(osp)
	if err != nil {
		return nil, err
	}
	wsp := r.tr.begin("warmup", parent, -1)
	defer r.tr.end(wsp)
	for i := 0; i < r.o.n(warmRequests); i++ {
		if _, err := svc.Submit(context.Background(), r.cfg, r.sets[i%querySets]); err != nil && !refused(err) {
			svc.Close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return svc, nil
}

// refused reports whether err is the admission gate's refusal. Closed
// loops tolerate it: the service returns a request's in-flight slots
// only after it has replied, so a caller that resubmits at once is now
// and then refused on account of its own previous request.
func refused(err error) bool { return errors.Is(err, ridgewalker.ErrOverloaded) }

// phase offers requests to svc in an open loop at rate for dur. Request
// i uses query set (first+i) mod querySets; every verifyEvery-th keeps
// its paths.
func (r *run) phase(svc *ridgewalker.Service, name string, parent int, start time.Time, rate float64, dur time.Duration, first int) []request {
	n := int(rate * dur.Seconds())
	reqs := make([]request, n)
	sp := r.tr.begin(name, parent, -1)
	defer r.tr.end(sp)
	lateBy, drops := openLoop(start, rate, n, maxOutstanding, func(i int, due time.Time) {
		q := &reqs[i]
		id := first + i
		sample := id%verifyEvery == 0
		if sample {
			q.e0 = svc.GraphEpoch()
		}
		rsp := r.tr.begin("submit", sp, int64(id))
		start := time.Now()
		res, err := svc.Submit(context.Background(), r.cfg, r.sets[id%querySets])
		end := time.Now()
		r.tr.end(rsp)
		q.due, q.lat, q.callLat = due, end.Sub(due), end.Sub(start)
		switch {
		case err == nil && q.lat <= latencyLimit:
			q.class = good
		case err == nil:
			q.class = late
		case refused(err):
			q.class = shed
		default:
			q.class = errored
		}
		if err == nil {
			q.steps = res.Steps
			if sample {
				q.res, q.e1 = res, svc.GraphEpoch()
			}
		}
	})
	for i := range reqs {
		reqs[i].sentLate = lateBy[i]
		if drops[i] {
			reqs[i].class = dropped
		}
	}
	r.rec.Phases[name] += float64(n) / rate
	return reqs
}

// mutator alternates InsertEdges and DeleteEdges of the same mutateEdges
// seeded random edges, one call every period from start until end, so
// the graph's size stays put while its epoch advances once per call.
// Calls are due half a read interval off the reads' schedule: a mutation
// that shared its due time with a read would race it for the epoch.
func (r *run) mutator(svc *ridgewalker.Service, parent int, start, end time.Time, out chan<- []mutation) {
	rnd := rng.New(r.o.seed ^ 0x6d757461746f72)
	var muts []mutation
	var inserted []graph.Edge
	period := mutatePeriod
	if r.o.smoke {
		period /= 10
	}
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k)*period + time.Second/(2*lightRate))
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		m := mutation{insert: inserted == nil}
		sp := r.tr.begin("mutate", parent, int64(k))
		t := time.Now()
		if m.insert {
			m.edges = randomEdges(r.g, rnd, mutateEdges)
			m.err = svc.InsertEdges(m.edges)
			inserted = m.edges
		} else {
			m.edges = inserted
			m.err = svc.DeleteEdges(m.edges)
			inserted = nil
		}
		m.end = time.Now()
		m.lat = m.end.Sub(t)
		r.tr.end(sp)
		muts = append(muts, m)
		if m.err != nil {
			break
		}
	}
	out <- muts
}

// serve runs a serving workload: open-loop Submit traffic against a
// default Service with the auto in-flight budget.
func (r *run) serve() error {
	// reads holds every request in the order it was issued, so a
	// request's index is its id; lightReqs and loadReqs are the ones the
	// latency and the goodput metrics are taken from.
	var reads, lightReqs, loadReqs []request
	var muts []mutation
	var loadDur float64
	var adm ridgewalker.AdmissionStats
	var served ridgewalker.Counter
	recalibrations := 0
	setups, err := coldStarts(r, r.setupService, func(svc *ridgewalker.Service, sh share) error {
		first := len(reads)
		if r.w.mutate {
			out := make(chan []mutation, 1)
			start := time.Now()
			go r.mutator(svc, sh.span, start, start.Add(sh.dur), out)
			reqs := r.phase(svc, "reads", sh.span, start, lightRate, sh.dur, first)
			for _, m := range <-out {
				m.rep = sh.rep
				muts = append(muts, m)
			}
			reads = append(reads, reqs...)
			lightReqs, loadReqs = reads, reads
			loadDur += float64(len(reqs)) / lightRate
		} else {
			lightDur := time.Duration(lightShare * float64(sh.dur))
			light := r.phase(svc, "light", sh.span, time.Now(), lightRate, lightDur, first)
			heavy := r.phase(svc, "heavy", sh.span, time.Now(), heavyRate, sh.dur-lightDur, first+len(light))
			reads = append(append(reads, light...), heavy...)
			lightReqs = append(lightReqs, light...)
			loadReqs = append(loadReqs, heavy...)
			loadDur += float64(len(heavy)) / heavyRate
		}
		for i := first; i < len(reads); i++ {
			reads[i].rep = sh.rep
		}
		// What the planner, admission and service layers did, read from
		// the service's own counters before it is closed.
		plans := svc.PlanStatus()
		r.rec.Plan = plans
		for _, c := range plans {
			recalibrations += c.Recalibrations
		}
		adm = svc.AdmissionStatus()
		for _, c := range svc.Metrics().PerAlgorithm {
			served.Queries += c.Queries
			served.Batches += c.Batches
		}
		return nil
	})
	if err != nil {
		return err
	}
	peak := peakRSSMB()

	vsp := r.tr.begin("verify", r.root, -1)
	checked, mismatched, err := r.verifyServe(reads, muts)
	r.tr.end(vsp)
	if err != nil {
		return err
	}

	rec := r.rec
	rec.Phases["measure"] = r.o.seconds
	rec.Admission = adm

	// Latency is what completed requests saw where the offered rate is
	// under capacity; throughput and goodput are what the loaded phase
	// completed correctly and in time.
	var lats []float64
	for _, q := range lightReqs {
		if q.class == good || q.class == late {
			lats = append(lats, ms(q.lat.Seconds()))
		}
	}
	var goodReqs int
	var goodSteps int64
	var shedLats []float64
	for _, q := range loadReqs {
		switch q.class {
		case good:
			goodReqs++
			goodSteps += q.steps
		case shed:
			shedLats = append(shedLats, q.callLat.Seconds()*1e6)
		}
	}
	notGood, broken := mismatched, mismatched
	var genLate []float64
	for _, q := range reads {
		if q.class != good {
			notGood++
		}
		if q.class == errored || q.class == dropped {
			broken++
		}
		if q.class != dropped {
			genLate = append(genLate, ms(q.sentLate.Seconds()))
		}
	}
	var mutLats, fresh []float64
	for _, m := range muts {
		if m.err != nil {
			notGood++
			broken++
			continue
		}
		mutLats = append(mutLats, ms(m.lat.Seconds()))
		// One of the reads due while the new epoch is fresh may pay for
		// the switch: usually the first due after the mutation returned,
		// but the one in flight beside it when the mutation is slow. The
		// stall is the slowest read due before the next mutation. Some
		// epochs stall a read for tens of milliseconds and some do not
		// (README, finding 3), so the metric is the mean, which moves with
		// how often and how long; a median flips between the two kinds.
		start := m.end.Add(-m.lat)
		worst := time.Duration(0)
		for _, q := range reads {
			if q.rep == m.rep && !q.due.Before(start) && q.due.Before(start.Add(mutatePeriod)) &&
				(q.class == good || q.class == late) && q.lat > worst {
				worst = q.lat
			}
		}
		if worst > 0 {
			fresh = append(fresh, ms(worst.Seconds()))
		}
	}
	rec.Correct = mismatched == 0
	rec.Attempted = len(reads) + len(muts)
	// Failed counts outcomes that are wrong. A refusal or a late reply
	// is the service's answer to load: it lowers goodput_rps and raises
	// failed_share but is not counted here.
	rec.Failed = broken
	rec.Checked = checked

	sorted := sortedCopy(lats)
	rec.e2e("setup_s", median(setups), len(setups))
	rec.e2e("msteps_per_s", float64(goodSteps)/loadDur/1e6, goodReqs)
	rec.e2e("peak_rss_mb", peak, 1)
	rec.e2e("lat_p50_ms", percentile(sorted, 50), len(lats))
	rec.e2e("lat_p99_ms", percentile(sorted, 99), len(lats))
	rec.e2e("failed_share", float64(notGood)/float64(rec.Attempted), rec.Attempted)
	rec.e2e("goodput_rps", float64(goodReqs)/loadDur, goodReqs)
	if r.w.mutate {
		rec.e2e("fresh_mean_ms", mean(fresh), len(fresh))
		rec.e2e("mutate_p50_ms", median(mutLats), len(mutLats))
	}

	rec.layer("admit.budget_queries", float64(adm.Budget), 0)
	rec.layer("admit.service_rate_qps", adm.ServiceRate, 0)
	rec.layer("admit.shed_share", float64(len(shedLats))/float64(len(loadReqs)), len(loadReqs))
	rec.layer("admit.shed_p99_us", percentile(sortedCopy(shedLats), 99), len(shedLats))
	rec.layer("service.gen_late_p99_ms", percentile(sortedCopy(genLate), 99), len(genLate))
	if served.Batches > 0 {
		rec.layer("service.queries_per_batch", float64(served.Queries)/float64(served.Batches), int(served.Batches))
	}
	rec.layer("plan.recalibrations", float64(recalibrations), 0)
	return nil
}

// verifyServe checks the sampled requests. A request that ran wholly on
// the unmutated graph must equal walk.Run byte for byte; one that may
// have run on a later epoch must be a valid walk on a snapshot of one of
// the epochs it can have seen. Each cold start's service began at epoch
// 0, so the mutations are replayed per start.
func (r *run) verifyServe(reads []request, muts []mutation) (checked, mismatched int, err error) {
	sets := r.sets
	snaps := map[int][]*graph.Snapshot{} // by cold start, then by epoch
	mirrors := map[int]*graph.Versioned{}
	for _, m := range muts {
		if m.err != nil {
			continue
		}
		mirror := mirrors[m.rep]
		if mirror == nil {
			mirror = graph.NewVersioned(r.g)
			mirrors[m.rep] = mirror
			snaps[m.rep] = []*graph.Snapshot{mirror.Snapshot()}
		}
		if m.insert {
			err = mirror.InsertEdges(m.edges)
		} else {
			err = mirror.DeleteEdges(m.edges)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("replaying mutation: %w", err)
		}
		snaps[m.rep] = append(snaps[m.rep], mirror.Snapshot())
	}
	refs := map[int]*walk.Result{}
	for id, q := range reads {
		if q.res == nil {
			continue
		}
		set := id % querySets
		checked += len(q.res.Paths)
		if q.e1 == 0 {
			ref := refs[set]
			if ref == nil {
				if ref, err = walk.Run(r.g, sets[set], r.cfg); err != nil {
					return 0, 0, err
				}
				refs[set] = ref
			}
			if len(ref.Paths) != len(q.res.Paths) {
				mismatched++
				continue
			}
			for i := range ref.Paths {
				if !slices.Equal(ref.Paths[i], q.res.Paths[i]) {
					mismatched++
					break
				}
			}
			continue
		}
		ok := false
		for e := q.e0; e <= q.e1 && int(e) < len(snaps[q.rep]) && !ok; e++ {
			ok = validOn(snaps[q.rep][e], sets[set], q.res, r.cfg)
		}
		if !ok {
			mismatched++
		}
	}
	return checked, mismatched, nil
}

// validOn is walk.ValidatePaths for an epoch snapshot: every path starts
// at its query's vertex, is no longer than the configured length and
// follows only edges the snapshot has.
func validOn(snap *graph.Snapshot, qs []walk.Query, res *ridgewalker.Result, cfg walk.Config) bool {
	if len(res.Paths) != len(qs) {
		return false
	}
	for i, p := range res.Paths {
		if len(p) == 0 || len(p) > cfg.WalkLength+1 || p[0] != qs[i].Start {
			return false
		}
		for j := 1; j < len(p); j++ {
			if !snap.HasEdge(p[j-1], p[j]) {
				return false
			}
		}
	}
	return true
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process. Where the kernel refuses, peak_rss_mb includes input
// generation, and the record says so.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb) // "  123456 kB"
			return kb / 1024
		}
	}
	return 0
}
