package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chaffmec/internal/chaff"
	"chaffmec/internal/coordinator"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/figures"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
	"chaffmec/internal/tune"
)

// layerMetric is one per-layer metric of the traced run. Its reported
// name is "<workload>.<name>"; moves names the end-to-end metric (and
// workload) the layer metric should move when the layer changes.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists, per workload, what the traced run reports.
var layerMetrics = map[string][]layerMetric{
	"paper-mo": {
		{"markov.sample_ns_per_slot", "ns", "runs_per_s@paper-mo"},
		{"chaff.generate_ns_per_slot", "ns", "runs_per_s@paper-mo"},
		{"detect.gather_ns_per_slot", "ns", "runs_per_s@paper-mo"},
		{"detect.score_ns_per_lane_slot", "ns", "runs_per_s@paper-mo"},
		{"detect.block_width", "count", "runs_per_s@paper-mo"},
		{"engine.reduce_ns_per_run", "ns", "runs_per_s@paper-mo"},
		{"tune.calibrate_ms", "ms", "setup_s@paper-mo"},
	},
	"grid-im": {
		{"markov.sample_ns_per_slot", "ns", "runs_per_s@grid-im"},
		{"markov.build_ms", "ms", "job_ms_p50@grid-im"},
		{"scenario.resolve_ms", "ms", "job_ms_p50@grid-im"},
		{"chaff.generate_ns_per_slot", "ns", "none: IM is plain sampling (bypass control)"},
		{"detect.gather_ns_per_slot", "ns", "runs_per_s@grid-im"},
		{"detect.score_ns_per_lane_slot", "ns", "runs_per_s@grid-im"},
		{"detect.block_width", "count", "runs_per_s@grid-im"},
		{"tune.calibrate_ms", "ms", "setup_s@grid-im"},
	},
	"ext-approxdp": {
		{"chaff.plan_ms_per_run", "ms", "job_ms_p50@ext-approxdp"},
	},
	"fleet-trace": {
		{"figures.tracelab_build_ms", "ms", "setup_s@fleet-trace"},
		{"tune.calibrate_ms", "ms", "setup_s@fleet-trace"},
		{"store.lab_hit_ratio", "ratio", "setup_s@fleet-trace"},
		{"report.encode_us_per_shard", "us", "job_ms_p50@fleet-trace"},
		{"report.decode_us_per_shard", "us", "job_ms_p50@fleet-trace"},
		{"report.shard_bytes", "bytes", "peak_rss_mb@fleet-trace"},
		{"report.merge_us_per_job", "us", "job_ms_p50@fleet-trace"},
		{"report.wire_bytes_per_run", "bytes", "job_ms_p50@fleet-trace"},
		{"store.put_us", "us", "job_ms_p50@fleet-trace"},
		{"store.get_us", "us", "job_ms_p50@fleet-trace"},
		{"coordinator.roundtrip_us_per_shard", "us", "job_ms_p50@fleet-trace"},
		{"coordinator.server_us_per_shard", "us", "job_ms_p50@fleet-trace"},
		{"coordinator.overhead_us_per_shard", "us", "job_ms_p90@fleet-trace"},
		{"coordinator.shards_per_job", "count", "job_ms_p50@fleet-trace"},
		{"coordinator.retries", "count", "job_ms_p90@fleet-trace"},
		{"coordinator.worker_busy_ratio", "ratio", "runs_per_s@fleet-trace"},
	},
}

// shareLayers are the layers whose share of the traced self time each
// workload reports, next to its tracing overhead.
var shareLayers = map[string][]string{
	"paper-mo":     {"chaff", "markov", "detect", "engine", "scenario"},
	"grid-im":      {"chaff", "markov", "detect", "engine", "scenario"},
	"ext-approxdp": {"chaff", "markov", "detect", "engine", "scenario"},
	"fleet-trace":  {"coordinator", "report", "store", "scenario"},
}

func shareMoves(w, layer string) string {
	switch {
	case layer == "chaff" && w == "grid-im":
		return "none: bypass control for chaff work"
	case w == "ext-approxdp":
		return "job_ms_p50@ext-approxdp"
	}
	return "runs_per_s@" + w
}

// tracedRun is the -trace 1 run: every workload in turn, each given an
// equal slice of the time budget, half untraced and half traced over the
// same jobs. The traced half drives the layers' public calls itself and
// records a span around each; its outputs must byte-equal the untraced
// reports of the same jobs.
func tracedRun(ctx context.Context, o options) (result, artifact, error) {
	res := result{Metrics: map[string]metric{}}
	art := artifact{Detail: map[string]detail{}}
	budget := time.Duration(o.seconds * float64(time.Second) / float64(len(workloads)))
	if o.spans != "" {
		os.Remove(o.spans)
	}
	for _, w := range workloads {
		t := &tracedWorkload{w: w, o: o, rec: newRecorder(), vals: map[string]float64{}}
		var err error
		if w.fleet {
			err = t.fleet(ctx, budget)
		} else {
			err = t.local(ctx, budget)
		}
		if err != nil {
			return result{}, artifact{}, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		for _, m := range layerMetrics[w.name] {
			t.report(&res, &art, m.name, m.unit, m.moves)
		}
		for l, v := range t.shares {
			t.vals[l+".share"] = v
		}
		for _, l := range shareLayers[w.name] {
			t.report(&res, &art, l+".share", "ratio", shareMoves(w.name, l))
		}
		t.report(&res, &art, "trace.overhead_ratio", "ratio", "none: untraced/traced runs_per_s")
		art.Notes = append(art.Notes, fmt.Sprintf("%s: self-time shares %s; %d traced jobs, %d spans",
			w.name, rankShares(t.shares), t.tracedJobs, len(t.rec.spans)))
		if o.spans != "" {
			if err := writeSpans(o.spans, w.name, t.rec.spans); err != nil {
				return result{}, artifact{}, err
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, art, nil
}

// tracedWorkload accumulates one workload's traced measurements.
type tracedWorkload struct {
	w   *workload
	o   options
	rec *recorder
	// vals holds the computed per-layer metrics by unprefixed name.
	vals   map[string]float64
	shares map[string]float64

	attempted, failed, tracedJobs int
}

func (t *tracedWorkload) report(res *result, art *artifact, name, unit, moves string) {
	v := t.vals[name]
	full := t.w.name + "." + name
	res.Metrics[full] = metric{Value: v, Unit: unit}
	art.Detail[full] = detail{Value: v, Unit: unit, Moves: moves}
}

// timed records fn as a root span named name and returns its error.
func (t *tracedWorkload) timed(name string, fn func() error) error {
	l := t.rec.lane(0)
	l.begin(name)
	err := fn()
	l.end()
	l.flush()
	return err
}

// spanMean is the mean self time of the named spans, in units of unit.
func spanMean(use map[string]*usage, name string, unit time.Duration) float64 {
	u := use[name]
	if u == nil || u.count == 0 {
		return 0
	}
	return float64(u.self) / float64(u.count) / float64(unit)
}

// local traces an in-process workload. The replica drives the same
// public calls the scenario layer makes for a "single" job —
// markov.Chain.SampleBatch, chaff.GenerateInto, detect.Block.SetColumn /
// SetTrajectory, detect.BlockScorer.ScoreBlock, engine.SeriesStats.Add —
// through engine.Run with a span around each.
func (t *tracedWorkload) local(ctx context.Context, budget time.Duration) error {
	b, err := setUp(ctx, t.w, t.o, nil)
	if err != nil {
		return err
	}
	defer b.close()
	sp := b.job(-1).Spec
	chain, err := buildChain(sp)
	if err != nil {
		return err
	}
	if err := t.timed("tune.calibrate", func() error {
		if tune.Sweep(chain, 1+sp.NumChaffs, sp.Horizon) == nil {
			return errors.New("calibration measured nothing")
		}
		return nil
	}); err != nil {
		return err
	}

	un, err := b.measure(ctx, time.Duration(settleShare*float64(budget)), budget/2, true)
	if err != nil {
		return err
	}
	t.attempted += un.attempted
	t.failed += un.failed
	var (
		c      localCounts
		runs   int
		traced time.Duration
	)
	for _, d := range un.done {
		if traced >= budget/2 && t.tracedJobs > 0 {
			break
		}
		t0 := time.Now()
		series, err := t.localJob(ctx, d.job, &c)
		traced += time.Since(t0)
		t.attempted++
		t.tracedJobs++
		if err == nil {
			err = sameSeries(series, d.rep.Series)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s seed %d: %v\n", t.w.name, d.job.Spec.Seed, err)
			t.failed++
			continue
		}
		runs += d.rep.RunCount
	}
	if runs == 0 {
		return errors.New("no traced job matched its untraced report")
	}

	use := aggregate(t.rec.spans)
	jobs := float64(t.tracedJobs)
	T := float64(sp.Horizon)
	t.vals["markov.sample_ns_per_slot"] = perUnit(use, "markov.sample", float64(c.sampleSlots))
	t.vals["markov.build_ms"] = spanMean(use, "markov.build", time.Millisecond)
	t.vals["scenario.resolve_ms"] = spanMean(use, "scenario.resolve", time.Millisecond)
	t.vals["chaff.generate_ns_per_slot"] = perUnit(use, "chaff.generate", float64(c.runs)*T)
	t.vals["chaff.plan_ms_per_run"] = perUnit(use, "chaff.plan", jobs) / 1e6
	t.vals["detect.gather_ns_per_slot"] = perUnit(use, "detect.gather", float64(c.runs)*T)
	t.vals["detect.score_ns_per_lane_slot"] = perUnit(use, "detect.score", float64(c.laneSlots))
	t.vals["detect.block_width"] = float64(c.runs) / float64(c.blocks)
	t.vals["engine.reduce_ns_per_run"] = perUnit(use, "engine.reduce", float64(c.runs))
	t.vals["tune.calibrate_ms"] = spanMean(use, "tune.calibrate", time.Millisecond)
	t.vals["trace.overhead_ratio"] = overhead(un, runs, traced)
	// Set-up spans are not part of a job's time: shares cover the jobs.
	delete(use, "tune.calibrate")
	t.shares = layerShares(use)
	return nil
}

// overhead is the untraced window's runs_per_s over the traced jobs'
// (their own wall time; checks and replays between jobs excluded).
func overhead(un window, runs int, traced time.Duration) float64 {
	return (float64(un.runs) / un.busy.Seconds()) / (float64(runs) / traced.Seconds())
}

// perUnit is the summed self time of the named spans per unit of work,
// in nanoseconds.
func perUnit(use map[string]*usage, name string, units float64) float64 {
	u := use[name]
	if u == nil || units == 0 {
		return 0
	}
	return float64(u.self) / units
}

// localCounts is the work the replica's spans covered.
type localCounts struct {
	blocks, runs, sampleSlots, laneSlots int
}

// replicaWorker mirrors the scenario layer's per-worker scratch.
type replicaWorker struct {
	lane      *lane
	ws        *detect.Workspace
	users     []int32
	userBuf   markov.Trajectory
	chaffBufs []markov.Trajectory
	c         localCounts
}

// localJob runs one job through the replica and returns its series
// snapshots, which must equal the untraced report's.
func (t *tracedWorkload) localJob(ctx context.Context, job scenario.Job, c *localCounts) (map[string]engine.SeriesSnapshot, error) {
	sp := job.Spec
	drv := t.rec.lane(0)
	defer drv.flush()
	drv.begin("scenario.job")
	defer drv.end()

	drv.begin("scenario.resolve")
	drv.begin("markov.build")
	chain, err := buildChain(sp)
	if err == nil {
		_, err = chain.SteadyState()
	}
	drv.end()
	if err != nil {
		drv.end()
		return nil, err
	}
	strat, err := chaff.NewByName(sp.Strategy, chain)
	if err != nil {
		drv.end()
		return nil, err
	}
	scorer := detect.NewMLDetector(chain)
	width := tune.BlockSize(chain, 1+sp.NumChaffs, sp.Horizon)
	drv.end()

	if planner, ok := strat.(chaff.TrajectoryMapper); ok && t.w.plans {
		// The planner runs once per job, on the first run's chaff; hoist
		// it into its own span (a sampled user feeds it; the plan does
		// not depend on which).
		drv.begin("chaff.plan")
		user, err := chain.Sample(rng.New(1), sp.Horizon)
		if err == nil {
			_, err = planner.Gamma(user)
		}
		drv.end()
		if err != nil {
			return nil, err
		}
	}

	T := sp.Horizon
	runID := drv.begin("engine.run")
	defer drv.end()
	reduce := t.rec.lane(runID)
	defer reduce.flush()
	track := engine.NewSeriesStats(T)
	detection := engine.NewSeriesStats(T)
	type out struct{ track, det []float64 }
	cfg := engine.Config[*replicaWorker, out]{
		NewWorker: func(int) (*replicaWorker, error) {
			w := &replicaWorker{
				lane:      t.rec.lane(runID),
				ws:        detect.GetWorkspace(),
				userBuf:   make(markov.Trajectory, T),
				chaffBufs: make([]markov.Trajectory, sp.NumChaffs),
			}
			for i := range w.chaffBufs {
				w.chaffBufs[i] = make(markov.Trajectory, T)
			}
			return w, nil
		},
		FreeWorker: func(w *replicaWorker) {
			w.ws.Release()
			w.lane.flush()
			c.blocks += w.c.blocks
			c.runs += w.c.runs
			c.sampleSlots += w.c.sampleSlots
			c.laneSlots += w.c.laneSlots
		},
		BlockSize: width,
		RunBlock: func(w *replicaWorker, _ int, rngs []*rand.Rand, res []out) error {
			l := w.lane
			l.begin("engine.block")
			defer l.end()
			B := len(rngs)
			if cap(w.users) < B*T {
				w.users = make([]int32, B*T)
			}
			users := w.users[:B*T]
			l.begin("markov.sample")
			err := chain.SampleBatch(rngs, T, users)
			l.end()
			if err != nil {
				return err
			}
			blk := w.ws.Block(B, 1+sp.NumChaffs, T)
			for r := 0; r < B; r++ {
				for s := 0; s < T; s++ {
					w.userBuf[s] = int(users[s*B+r])
				}
				l.begin("chaff.generate")
				err := chaff.GenerateInto(strat, rngs[r], w.userBuf, w.chaffBufs)
				l.end()
				if err != nil {
					return err
				}
				l.begin("detect.gather")
				blk.SetColumn(r, 0, users, B, r)
				for i, ch := range w.chaffBufs {
					if err = blk.SetTrajectory(r, 1+i, ch); err != nil {
						break
					}
				}
				l.end()
				if err != nil {
					return err
				}
			}
			l.begin("detect.score")
			err = scorer.ScoreBlock(blk, 0)
			l.end()
			if err != nil {
				return err
			}
			backing := make([]float64, 2*B*T)
			for r := range res {
				res[r].track = backing[2*r*T : (2*r+1)*T]
				res[r].det = backing[(2*r+1)*T : (2*r+2)*T]
				copy(res[r].track, blk.Tracking(r))
				copy(res[r].det, blk.Detection(r))
			}
			w.c.blocks++
			w.c.runs += B
			w.c.sampleSlots += B * T
			w.c.laneSlots += B * (1 + sp.NumChaffs) * T
			return nil
		},
		Accumulate: func(_ int, r out) error {
			reduce.begin("engine.reduce")
			err := track.Add(r.track)
			if err == nil {
				err = detection.Add(r.det)
			}
			reduce.end()
			return err
		},
	}
	opts := engine.Options{Runs: sp.Runs, Seed: sp.Seed, Workers: sp.Workers}
	if err := engine.Run(ctx, opts, cfg); err != nil {
		return nil, err
	}
	return map[string]engine.SeriesSnapshot{
		report.SeriesTracking:  track.Snapshot(),
		report.SeriesDetection: detection.Snapshot(),
	}, nil
}

// buildChain mirrors the scenario layer's model resolution for the
// models the local workloads use.
func buildChain(sp scenario.Spec) (*markov.Chain, error) {
	switch sp.Model {
	case "grid":
		g, err := mobility.NewGrid(sp.GridW, sp.GridH)
		if err != nil {
			return nil, err
		}
		return g.Walk(sp.PMove, mobility.DefaultEps)
	case "spatially-skewed":
		if sp.ModelSeed != 0 {
			return mobility.Build(mobility.ModelSpatiallySkewed, rng.New(sp.ModelSeed), sp.Cells)
		}
		return mobility.BuildDerived(mobility.ModelSpatiallySkewed, sp.Seed, sp.Cells)
	}
	return nil, fmt.Errorf("no replica for model %q", sp.Model)
}

// sameSeries compares series snapshots byte for byte.
func sameSeries(got, want map[string]engine.SeriesSnapshot) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("traced series differ from the untraced report")
	}
	return nil
}

// fleetTracer wraps the fleet workload's transports and worker handlers:
// a coordinator.roundtrip span around every dispatch, a
// coordinator.serve span around every request the worker handles
// (linked to its dispatch by a request header), and counters fed by the
// coordinator's progress events.
type fleetTracer struct {
	rec *recorder
	// job is the root span of the job in flight.
	job atomic.Int64

	mu     sync.Mutex
	shards []doneJob // every dispatch's job and returned report

	// Written by Progress, which runs on the driving goroutine.
	dispatches, failures int
	wire                 int64
}

const spanHeader = "Perfbench-Span"

type spanKey struct{}

func (ft *fleetTracer) transport(t coordinator.Transport) coordinator.Transport {
	return &tracedTransport{Transport: t, ft: ft}
}

type tracedTransport struct {
	coordinator.Transport
	ft *fleetTracer
}

func (t *tracedTransport) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	r := t.ft.rec
	s := span{ID: r.nextID(), Parent: t.ft.job.Load(), Name: "coordinator.roundtrip", Start: r.now()}
	rep, err := t.Transport.Run(context.WithValue(ctx, spanKey{}, s.ID), job)
	s.End = r.now()
	r.add(s)
	if err == nil {
		t.ft.mu.Lock()
		t.ft.shards = append(t.ft.shards, doneJob{job: job, rep: rep})
		t.ft.mu.Unlock()
	}
	return rep, err
}

func (t *tracedTransport) LastWire() coordinator.WireStats { return lastWire(t.Transport) }

// roundTripper tags each dispatch request with its roundtrip span.
func (ft *fleetTracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if id, ok := req.Context().Value(spanKey{}).(int64); ok {
			req = req.Clone(req.Context())
			req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		}
		return next.RoundTrip(req)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func (ft *fleetTracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		r := ft.rec
		s := span{ID: r.nextID(), Parent: parent, Name: "coordinator.serve", Start: r.now()}
		h.ServeHTTP(w, req)
		s.End = r.now()
		r.add(s)
	})
}

func (ft *fleetTracer) event(e coordinator.Event) {
	switch e.Kind {
	case coordinator.EventDispatch:
		ft.dispatches++
	case coordinator.EventFailure, coordinator.EventPartial:
		ft.failures++
	case coordinator.EventResult:
		ft.wire += e.Wire.Sent + e.Wire.Received
	}
}

// reset drops what was recorded after the first mark spans.
func (ft *fleetTracer) reset(mark int) {
	ft.rec.mu.Lock()
	ft.rec.spans = ft.rec.spans[:mark]
	ft.rec.mu.Unlock()
	ft.mu.Lock()
	ft.shards = nil
	ft.mu.Unlock()
	ft.dispatches, ft.failures, ft.wire = 0, 0, 0
}

// fleet traces the fleet workload. Dispatch and serve spans are real;
// the worker-side split of serve time (shard compute vs report encode)
// and the coordinator's report decode, merge and store banking are
// measured by replaying the same public calls on each job's own shard
// reports right after the job.
func (t *tracedWorkload) fleet(ctx context.Context, budget time.Duration) error {
	sp := t.w.spec
	var lab *figures.TraceLab
	if err := t.timed("figures.tracelab_build", func() error {
		var err error
		lab, err = figures.BuildTraceLab(figures.TraceConfig{Seed: sp.ModelSeed, Nodes: sp.Nodes, Minutes: sp.Horizon})
		return err
	}); err != nil {
		return err
	}
	if err := t.timed("tune.calibrate", func() error {
		if tune.Sweep(lab.Chain, len(lab.Trajectories)+sp.NumChaffs, lab.Horizon) == nil {
			return errors.New("calibration measured nothing")
		}
		return nil
	}); err != nil {
		return err
	}

	// Untraced half, on an unwrapped fleet.
	b, err := setUp(ctx, t.w, t.o, nil)
	if err != nil {
		return err
	}
	un, err := b.measure(ctx, time.Duration(settleShare*float64(budget)), budget/2, false)
	if err != nil {
		b.close()
		return err
	}
	// A fresh process against the now warm store: the lab must come from
	// the store, not from a rebuild.
	builds := scenario.TraceLabBuilds()
	scenario.ResetTraceLabCache()
	_, err = scenario.RunJob(ctx, b.job(-1))
	b.close()
	if err != nil {
		return err
	}
	t.vals["store.lab_hit_ratio"] = 1 - float64(scenario.TraceLabBuilds()-builds)
	t.attempted += un.attempted
	t.failed += un.failed

	// Traced half, on a wrapped fleet; its warm-up job is not traced.
	ft := &fleetTracer{rec: t.rec}
	mark := len(t.rec.spans)
	tb, err := setUp(ctx, t.w, t.o, ft)
	if err != nil {
		return err
	}
	defer tb.close()
	ft.reset(mark)
	st, err := store.Open(filepath.Join(tb.dir, "replay"))
	if err != nil {
		return err
	}

	var (
		jobs, runs, shards int
		traced             time.Duration
		encBytes           int64
	)
	replay := t.rec.lane(0)
	for _, d := range un.done {
		if traced >= budget/2 && jobs > 0 {
			break
		}
		l := t.rec.lane(0)
		root := l.begin("coordinator.job")
		ft.job.Store(root)
		t0 := time.Now()
		rep, err := tb.run(ctx, d.job)
		traced += time.Since(t0)
		l.end()
		l.flush()
		ft.mu.Lock()
		calls := ft.shards
		ft.shards = nil
		ft.mu.Unlock()
		jobs++
		t.attempted++
		if err == nil {
			var sum [sha256.Size]byte
			if sum, err = digest(rep); err == nil && sum != d.sum {
				err = errors.New("traced fleet report differs from the untraced one")
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced fleet seed %d: %v\n", d.job.Spec.Seed, err)
			t.failed++
			continue
		}
		runs += rep.RunCount
		n, nb, err := replayShards(ctx, replay, st, calls)
		if err != nil {
			return err
		}
		shards += n
		encBytes += nb
	}
	replay.flush()
	t.tracedJobs = jobs

	spans := t.rec.spans
	use := aggregate(spans)
	rt, sv := use["coordinator.roundtrip"], use["coordinator.serve"]
	if rt == nil || sv == nil || shards == 0 || runs == 0 {
		return errors.New("traced fleet recorded no dispatches")
	}
	us := float64(time.Microsecond)
	t.vals["figures.tracelab_build_ms"] = spanMean(use, "figures.tracelab_build", time.Millisecond)
	t.vals["tune.calibrate_ms"] = spanMean(use, "tune.calibrate", time.Millisecond)
	t.vals["report.encode_us_per_shard"] = spanMean(use, "report.encode", time.Microsecond)
	t.vals["report.decode_us_per_shard"] = spanMean(use, "report.decode", time.Microsecond)
	t.vals["report.shard_bytes"] = float64(encBytes) / float64(shards)
	t.vals["report.merge_us_per_job"] = spanMean(use, "report.merge", time.Microsecond)
	t.vals["report.wire_bytes_per_run"] = float64(ft.wire) / float64(runs)
	t.vals["store.put_us"] = spanMean(use, "store.put", time.Microsecond)
	t.vals["store.get_us"] = spanMean(use, "store.get", time.Microsecond)
	t.vals["coordinator.roundtrip_us_per_shard"] = float64(rt.total) / float64(rt.count) / us
	t.vals["coordinator.server_us_per_shard"] = float64(sv.total) / float64(sv.count) / us
	t.vals["coordinator.overhead_us_per_shard"] = float64(rt.self) / float64(rt.count) / us
	t.vals["coordinator.shards_per_job"] = float64(ft.dispatches) / float64(jobs)
	t.vals["coordinator.retries"] = float64(ft.failures)
	t.vals["coordinator.worker_busy_ratio"] = float64(sv.total) / float64(fleetWorkers*traced)
	t.vals["trace.overhead_ratio"] = overhead(un, runs, traced)

	// Layer shares: shard compute, report codec and store time come from
	// the replays; the coordinator keeps the rest of the dispatch path
	// (job self time, roundtrip minus serve, serve minus compute and
	// encode).
	scen := float64(use["scenario.shard"].self)
	rep := float64(use["report.encode"].self + use["report.decode"].self + use["report.merge"].self)
	sto := float64(use["store.put"].self + use["store.get"].self)
	coord := float64(use["coordinator.job"].self+rt.self+sv.self) - scen - rep - sto
	all := max(coord, 0) + scen + rep + sto
	t.shares = map[string]float64{
		"coordinator": max(coord, 0) / all,
		"scenario":    scen / all,
		"report":      rep / all,
		"store":       sto / all,
	}
	return nil
}

// replayShards re-times one job's shard calls on the calling goroutine,
// making the calls the coordinator makes: shard compute
// (coordinator.RunShard) and report encode in the wire encoding for every
// dispatch, report decode of every result, and per planned shard the
// banked-shard lookup (a store.GetMapped miss: every job has a fresh
// seed) and the store.Put banking it; then the merge of the job's shards
// and the two Puts of the campaign checkpoint (after the round and after
// finalizing). It returns the dispatch count and encoded bytes.
func replayShards(ctx context.Context, l *lane, st *store.Store, calls []doneJob) (int, int64, error) {
	var (
		parts []*report.Report
		seen  = map[[2]int]bool{}
		total int64
	)
	if len(calls) == 0 {
		return 0, 0, errors.New("no shard dispatches to replay")
	}
	spec, err := json.Marshal(calls[0].job.Spec)
	if err != nil {
		return 0, 0, err
	}
	for _, c := range calls {
		l.begin("scenario.shard")
		_, err := coordinator.RunShard(ctx, c.job, 0)
		l.end()
		if err != nil {
			return 0, 0, err
		}
		var buf bytes.Buffer
		l.begin("report.encode")
		err = report.WriteEncoded(&buf, []*report.Report{c.rep}, report.EncodingBinaryGzip)
		l.end()
		if err != nil {
			return 0, 0, err
		}
		blob := buf.Bytes()
		total += int64(len(blob))
		l.begin("report.decode")
		_, err = report.DecodeReports(blob)
		l.end()
		if err != nil {
			return 0, 0, err
		}
		r := [2]int{c.rep.RunStart, c.rep.RunCount}
		if seen[r] { // a speculative duplicate: looked up and banked once
			continue
		}
		seen[r] = true
		parts = append(parts, c.rep)
		key := store.Key("report", string(spec), rng.StreamVersion, strconv.Itoa(r[0]), strconv.Itoa(r[0]+r[1]))
		l.begin("store.get")
		_, release, ok, err := st.GetMapped("report", key)
		l.end()
		if ok {
			release()
			err = errors.New("replay store already holds the shard")
		}
		if err != nil {
			return 0, 0, err
		}
		l.begin("store.put")
		err = st.Put("report", key, blob)
		l.end()
		if err != nil {
			return 0, 0, err
		}
	}
	l.begin("report.merge")
	merged, err := report.Merge(parts...)
	l.end()
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	if err := report.WriteEncoded(&buf, []*report.Report{merged}, report.EncodingBinaryGzip); err != nil {
		return 0, 0, err
	}
	key := store.Key("campaign", string(spec), rng.StreamVersion)
	for k := 0; k < 2; k++ {
		l.begin("store.put")
		err = st.Put("campaign", key, buf.Bytes())
		l.end()
		if err != nil {
			return 0, 0, err
		}
	}
	return len(calls), total, nil
}
