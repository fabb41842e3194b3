package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ridgewalker"

	"ridgewalker/internal/graph"
)

func init() {
	register(Experiment{ID: "serve", Title: "Serving under overload: saturation goodput, shed latency, admission budget",
		Run: func(c *Context, w io.Writer) error {
			rec, err := RunServe(c)
			if err != nil {
				return err
			}
			return WriteServeTable(rec, w)
		}})
}

// Serving-harness shape. Requests carry serveRequestQueries walk queries
// each — the GraphSAGE-ish "one front-end call, a few dozen walks" unit —
// so request-level latency prices a realistic serving quantum rather than
// a single walk. The closed loop keeps 16× the worker count of submitters
// resubmitting back-to-back (enough to hold the admission budget full
// through the feedback window: the auto budget settles near 750 queries
// per worker, twelve requests), and each open-loop point paces
// submissions at a fixed multiple of the measured saturation rate.
const (
	serveRequestQueries = 64
	serveSubmitterMult  = 16
	serveWarm           = 150 * time.Millisecond
	serveMeasure        = 400 * time.Millisecond
	servePointDur       = 400 * time.Millisecond
	// servePaceFloor is the shortest sleep the pacing loop relies on;
	// faster target rates are reached by submitting bursts per slot
	// instead of trusting sub-200µs timer resolution.
	servePaceFloor = 200 * time.Microsecond
)

// serveLoadFactors are the open-loop operating points, as multiples of
// the measured saturation rate. 2.0 is the acceptance point: shed
// requests must fail fast there while admitted goodput holds.
var serveLoadFactors = []float64{0.5, 1.0, 2.0}

// ServePoint is one open-loop operating point of the serving harness:
// requests paced at LoadFactor × the measured saturation rate against a
// Service with the feedback-derived admission budget. Latencies are
// request-level (one request = RequestQueries walks); shed requests are
// the ones rejected at the admission door with ErrOverloaded (or
// ErrQuotaExceeded, when quotas are configured), whose latency is the
// rejection cost the caller pays before it can retry elsewhere.
type ServePoint struct {
	LoadFactor float64 `json:"load_factor"`
	OfferedRPS float64 `json:"offered_rps"`
	// GoodputRPS counts only completed (admitted and finished) requests
	// over the point's full wall time, drain included.
	GoodputRPS float64 `json:"goodput_rps"`
	Admitted   int     `json:"admitted"`
	Shed       int     `json:"shed"`
	ShedRate   float64 `json:"shed_rate"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	ShedP50MS  float64 `json:"shed_p50_ms,omitempty"`
	ShedP99MS  float64 `json:"shed_p99_ms,omitempty"`
}

// ServeRecord is the BENCH.json serving measurement (schema 6): one
// closed-loop saturation probe plus the open-loop load sweep, all against
// one Service running the auto (Theorem VI.1 feedback) admission budget.
type ServeRecord struct {
	Backend        string  `json:"backend"`
	Algorithm      string  `json:"algorithm"`
	Graph          string  `json:"graph"`
	Workers        int     `json:"workers"`
	RequestQueries int     `json:"request_queries"`
	WalkLength     int     `json:"walk_length"`
	SaturationRPS  float64 `json:"saturation_rps"`
	// Budget and ServiceRate snapshot the admission controller after the
	// sweep: the feedback-derived in-flight query budget and the EWMA
	// per-worker service rate it was derived from.
	Budget      int          `json:"budget"`
	ServiceRate float64      `json:"service_rate"`
	Points      []ServePoint `json:"points"`
}

// RunServe generates the perf suite's RMAT graph at the configured
// shrink and runs the serving harness on it.
func RunServe(c *Context) (*ServeRecord, error) {
	scale := 22 - c.Opts.Shrink
	if scale < 10 {
		scale = 10
	}
	g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, c.Opts.Seed))
	if err != nil {
		return nil, err
	}
	return runServe(g, fmt.Sprintf("rmat-%d-graph500", scale), c.Opts)
}

// runServe measures the serving layer on an already generated graph:
// first a closed loop finds the saturation request rate, then each load
// factor runs open-loop against the same warm Service, so the admission
// budget enters the sweep already calibrated by observed service times.
func runServe(g *graph.CSR, name string, opts Options) (*ServeRecord, error) {
	wcfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	wcfg.WalkLength = opts.WalkLength
	wcfg.Seed = opts.Seed
	wcfg.Lane = ridgewalker.LaneInteractive
	qs, err := ridgewalker.RandomQueries(g, wcfg, serveRequestQueries, opts.Seed^0x5e17)
	if err != nil {
		return nil, err
	}
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu",
		MaxInFlight: ridgewalker.AutoInFlight,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	rec := &ServeRecord{
		Backend:        "cpu",
		Algorithm:      wcfg.Algorithm.String(),
		Graph:          name,
		Workers:        runtime.GOMAXPROCS(0),
		RequestQueries: len(qs),
		WalkLength:     opts.WalkLength,
	}
	sat, err := serveSaturate(svc, wcfg, qs)
	if err != nil {
		return nil, err
	}
	rec.SaturationRPS = sat
	for _, f := range serveLoadFactors {
		pt, err := servePoint(svc, wcfg, qs, sat, f)
		if err != nil {
			return nil, err
		}
		rec.Points = append(rec.Points, pt)
	}
	ast := svc.AdmissionStatus()
	rec.Budget = ast.Budget
	rec.ServiceRate = ast.ServiceRate
	return rec, nil
}

// serveSaturate runs the closed loop: a fixed pool of submitters
// resubmitting back-to-back, retrying shed requests after a tiny backoff
// (the loop's job is to keep the admission budget full, not to count
// rejections). The completed-request rate over the measurement window —
// after a warm-up that lets the feedback budget calibrate — is the
// saturation rate the open-loop points are paced against.
func serveSaturate(svc *ridgewalker.Service, cfg ridgewalker.WalkConfig, qs []ridgewalker.Query) (float64, error) {
	var (
		stop      atomic.Bool
		completed atomic.Int64
		errMu     sync.Mutex
		firstErr  error
		wg        sync.WaitGroup
	)
	for i := 0; i < serveSubmitterMult*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, err := svc.Submit(context.Background(), cfg, qs)
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ridgewalker.ErrOverloaded):
					time.Sleep(50 * time.Microsecond)
				default:
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	time.Sleep(serveWarm)
	completed.Store(0)
	t0 := time.Now()
	time.Sleep(serveMeasure)
	n := completed.Load()
	el := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("bench: serve closed loop completed no requests in %v", serveMeasure)
	}
	return float64(n) / el.Seconds(), nil
}

// servePoint runs one open-loop operating point: submissions paced at
// factor × satRPS (bursting per pacing slot when the interval would fall
// below timer resolution), every outcome classified and timed.
func servePoint(svc *ridgewalker.Service, cfg ridgewalker.WalkConfig, qs []ridgewalker.Query, satRPS, factor float64) (ServePoint, error) {
	target := satRPS * factor
	if target <= 0 {
		return ServePoint{}, fmt.Errorf("bench: serve point target rate %.2f rps", target)
	}
	burst := 1
	if iv := time.Duration(float64(time.Second) / target); iv < servePaceFloor {
		burst = int(servePaceFloor/iv) + 1
	}
	interval := time.Duration(float64(time.Second) * float64(burst) / target)
	var (
		mu       sync.Mutex
		admitted []float64 // request latency, ms
		shed     []float64 // rejection latency, ms
		ptErr    error
		wg       sync.WaitGroup
	)
	submitted := 0
	t0 := time.Now()
	next := t0
	for time.Since(t0) < servePointDur {
		for b := 0; b < burst; b++ {
			submitted++
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				_, err := svc.Submit(context.Background(), cfg, qs)
				ms := float64(time.Since(start)) / float64(time.Millisecond)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					admitted = append(admitted, ms)
				case errors.Is(err, ridgewalker.ErrOverloaded) || errors.Is(err, ridgewalker.ErrQuotaExceeded):
					shed = append(shed, ms)
				default:
					if ptErr == nil {
						ptErr = err
					}
				}
			}()
		}
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	elSubmit := time.Since(t0)
	wg.Wait()
	elTotal := time.Since(t0)
	mu.Lock()
	defer mu.Unlock()
	if ptErr != nil {
		return ServePoint{}, ptErr
	}
	sort.Float64s(admitted)
	sort.Float64s(shed)
	return ServePoint{
		LoadFactor: factor,
		OfferedRPS: float64(submitted) / elSubmit.Seconds(),
		GoodputRPS: float64(len(admitted)) / elTotal.Seconds(),
		Admitted:   len(admitted),
		Shed:       len(shed),
		ShedRate:   float64(len(shed)) / float64(submitted),
		P50MS:      pctileMS(admitted, 0.50),
		P95MS:      pctileMS(admitted, 0.95),
		P99MS:      pctileMS(admitted, 0.99),
		ShedP50MS:  pctileMS(shed, 0.50),
		ShedP99MS:  pctileMS(shed, 0.99),
	}, nil
}

// pctileMS reads the p-th percentile (nearest-rank) from an
// ascending-sorted latency slice; 0 when empty.
func pctileMS(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// WriteServeTable renders the serving sweep as the usual aligned table.
func WriteServeTable(rec *ServeRecord, w io.Writer) error {
	t := newTable(w, fmt.Sprintf("Serving under overload — %s on %s, %d queries/request × len %d, %d workers",
		rec.Backend, rec.Graph, rec.RequestQueries, rec.WalkLength, rec.Workers))
	t.row("load", "offered rps", "goodput rps", "shed", "p50 ms", "p95 ms", "p99 ms", "shed p99 ms")
	for _, p := range rec.Points {
		t.row(fmt.Sprintf("%.1fx", p.LoadFactor),
			fmt.Sprintf("%.0f", p.OfferedRPS), fmt.Sprintf("%.0f", p.GoodputRPS),
			fmt.Sprintf("%.0f%%", 100*p.ShedRate),
			fmt.Sprintf("%.2f", p.P50MS), fmt.Sprintf("%.2f", p.P95MS), fmt.Sprintf("%.2f", p.P99MS),
			fmt.Sprintf("%.3f", p.ShedP99MS))
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "saturation: %.0f req/s closed-loop; admission budget %d queries (EWMA %.0f q/s/worker)\n",
		rec.SaturationRPS, rec.Budget, rec.ServiceRate)
	return nil
}
