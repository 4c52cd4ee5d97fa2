package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// workload is one input set of the benchmark: a job template whose seed
// the closed loop replaces per job.
type workload struct {
	name string
	spec scenario.Spec
	// fleet fans every job out over loopback HTTP workers instead of
	// running it in process.
	fleet bool
	// plans marks an offline-planning strategy: the traced replica
	// times its planner as a span of its own before the runs start.
	plans bool
}

// fleetWorkers is the number of loopback HTTP workers of the fleet
// workload; with one engine worker each, busy workers stay at two.
const fleetWorkers = 2

// modelSeed fixes each workload's mobility model (and the fleet
// workload's synthetic taxi fleet, so every job reuses the TraceLab
// built during set-up): jobs differ only in their run streams, which
// keeps per-job cost, and so the run-to-run spread, narrow.
const modelSeed = 1709

// workloads lists the benchmark's inputs; why each exists is recorded in
// BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		// The paper protocol: MO chaff generation dominates.
		name: "paper-mo",
		spec: scenario.Spec{Kind: "single", Model: "spatially-skewed", Cells: 10, ModelSeed: modelSeed,
			Strategy: "MO", NumChaffs: 1, Horizon: 100, Runs: 1000},
	},
	{
		// Markov sampling and model build dominate; IM chaffs are the
		// bypass control for chaff work.
		name: "grid-im",
		spec: scenario.Spec{Kind: "single", Model: "grid", GridW: 20, GridH: 20, PMove: 0.7,
			Strategy: "IM", NumChaffs: 4, Horizon: 100, Runs: 1000},
	},
	{
		// The heaviest solver: value-iteration planning is nearly all of
		// each job. T=8 keeps a job near 130 ms, so a run holds over 100.
		name: "ext-approxdp",
		spec: scenario.Spec{Kind: "single", Model: "spatially-skewed", Cells: 10, ModelSeed: modelSeed,
			Strategy: "ApproxDP", NumChaffs: 1, Horizon: 8, Runs: 200},
		plans: true,
	},
	{
		// Small jobs, so dispatch, the report codec and shard banking do
		// most of the work. 32 runs (8 per shard) keep them the larger
		// part while halving the file creations and gzip writers per run
		// of 16-run jobs, whose latency followed the host's disk.
		name: "fleet-trace",
		spec: scenario.Spec{Kind: "trace", Nodes: 80, Horizon: 60, Strategy: "MO", NumChaffs: 1,
			ModelSeed: modelSeed, Runs: 32, Workers: 1},
		fleet: true,
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// bench is one set-up workload: its private artifact store and, for the
// fleet workload, the running loopback workers.
type bench struct {
	w     *workload
	seed  int64
	slice int
	dir   string
	fleet *fleet
}

// setUp prepares a workload cold: a fresh empty artifact store as the
// process default, the fleet's workers when it has one, and one warm-up
// job, which pays the block-geometry calibration and (fleet) the
// TraceLab build. The fleet banks shard reports in o.bank when set (one
// store shared by a run's slices), else in the default store. ft, when
// non-nil, wraps the fleet for tracing.
func setUp(ctx context.Context, w *workload, o options, ft *fleetTracer) (*bench, error) {
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: o.seed, slice: o.slice, dir: dir}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		b.close()
		return nil, err
	}
	store.SetDefault(st)
	if w.fleet {
		bank := st
		if o.bank != "" {
			if bank, err = store.Open(o.bank); err != nil {
				b.close()
				return nil, err
			}
		}
		if b.fleet, err = startFleet(ctx, bank, o.slowShard, ft); err != nil {
			b.close()
			return nil, err
		}
	}
	if _, err := b.run(ctx, b.job(-1)); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return b, nil
}

// close stops the workers and removes the run's files.
func (b *bench) close() {
	if b.fleet != nil {
		b.fleet.close()
	}
	store.SetDefault(nil)
	os.RemoveAll(b.dir)
}

// job returns the i-th job of the closed loop: the workload's template
// with a run seed derived from the benchmark seed and the slice (i = -1
// is the warm-up job).
func (b *bench) job(i int) scenario.Job {
	sp := b.w.spec
	sp.Name = b.w.name
	sp.Seed = rng.Derive(b.seed, int64(b.slice), int64(i))
	if sp.Workers == 0 {
		sp.Workers = runtime.NumCPU()
	}
	return scenario.Job{Spec: sp}
}

// run executes one job the way a user of the workload would.
func (b *bench) run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	if b.fleet != nil {
		return coordinator.RunFleet(ctx, job, b.fleet.fleet, b.fleet.opts)
	}
	return scenario.RunJob(ctx, job)
}

// window is one closed-loop measurement: one job in flight at a time,
// until the time budget is spent.
type window struct {
	jobMS     []float64
	runs      int
	attempted int
	failed    int
	// busy sums the jobs' own wall time: the bookkeeping between jobs
	// (output digests) is the benchmark's, not the system's. cpu, mallocs
	// and allocBytes are the window's totals less that bookkeeping (see
	// offBooks).
	busy       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	// stolen is the share of the window's CPU time the hypervisor took
	// from this virtual machine (see stolenSince).
	stolen float64
	// done lists every completed job with the digest of its report; the
	// report itself is kept for the first job, or for all with keepAll.
	done []doneJob
}

type doneJob struct {
	job scenario.Job
	rep *report.Report
	sum [sha256.Size]byte
}

// settleShare is the part of a budget spent running jobs before the
// window opens, so lazily created state (pooled connections and arenas,
// the heap's steady size) exists before timing starts.
const settleShare = 0.05

// bankSettleShare is the part of a fleet run's budget its first slice
// additionally settles for: creating the bank store's fan-out
// directories costs a fresh store several times a steady Put.
const bankSettleShare = 0.1

// measure runs jobs for settle, then the closed loop for budget.
func (b *bench) measure(ctx context.Context, settle, budget time.Duration, keepAll bool) (window, error) {
	var win window
	i := 0
	for begin := time.Now(); time.Since(begin) < settle; i++ {
		if _, err := b.run(ctx, b.job(i)); err != nil {
			return win, fmt.Errorf("settling job %d: %w", i, err)
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, stat0 := cpuTime(), readCPUStat()
	profileWindow(true)
	for begin := time.Now(); time.Since(begin) < budget; i++ {
		job := b.job(i)
		t0 := time.Now()
		rep, err := b.run(ctx, job)
		d := time.Since(t0)
		win.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", i, err)
			win.failed++
			continue
		}
		win.busy += d
		win.jobMS = append(win.jobMS, float64(d)/float64(time.Millisecond))
		win.runs += rep.RunCount
		var sum [sha256.Size]byte
		win.offBooks(func() { sum, err = digest(rep) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", i, err)
			win.failed++
			continue
		}
		if !keepAll && len(win.done) > 0 {
			rep = nil // keep the first report only
		}
		win.done = append(win.done, doneJob{job: job, rep: rep, sum: sum})
	}
	profileWindow(false)
	win.cpu += cpuTime() - cpu0
	win.stolen = readCPUStat().stolenSince(stat0)
	runtime.ReadMemStats(&ms1)
	win.mallocs += ms1.Mallocs - ms0.Mallocs
	win.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	if len(win.done) == 0 {
		return win, errors.New("no job completed in the window")
	}
	return win, nil
}

// offBooks runs the benchmark's own bookkeeping fn (an output digest)
// inside the window and takes its CPU time and allocations back out of
// the window's totals. Digesting each report as it arrives, rather than
// after the window, keeps the window from holding every report, which
// would tie peak RSS to the number of jobs. measure adds the window's
// totals afterwards; unsigned wrap-around cancels in between.
func (w *window) offBooks(fn func()) {
	var m0, m1 runtime.MemStats
	c0 := cpuTime()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	w.cpu -= cpuTime() - c0
	w.mallocs -= m1.Mallocs - m0.Mallocs
	w.allocBytes -= m1.TotalAlloc - m0.TotalAlloc
}

// check verifies the window's outputs outside the timed window and
// returns how many jobs mismatched. Every fleet job must byte-equal a
// single-process RunJob of the same job; a local job (the first) must
// byte-equal the report.Merge of its two-shard split. The checks are
// independent, so they run on every CPU: the fleet's single-worker jobs
// would otherwise leave one idle for most of the run's wall time.
func (b *bench) check(ctx context.Context, win window) int {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		bad  int
		next = make(chan doneJob)
	)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				var err error
				if b.fleet != nil {
					err = matchesInProcess(ctx, d)
				} else {
					err = matchesTwoShards(ctx, d)
				}
				if err != nil {
					mu.Lock()
					fmt.Fprintf(os.Stderr, "perfbench: output check, seed %d: %v\n", d.job.Spec.Seed, err)
					bad++
					mu.Unlock()
				}
			}
		}()
	}
	for _, d := range win.done {
		if b.fleet != nil || d.rep != nil {
			next <- d
		}
	}
	close(next)
	wg.Wait()
	return bad
}

func matchesInProcess(ctx context.Context, d doneJob) error {
	want, err := scenario.RunJob(ctx, d.job)
	if err != nil {
		return err
	}
	sum, err := digest(want)
	if err != nil {
		return err
	}
	if sum != d.sum {
		return errors.New("fleet report differs from the single-process report")
	}
	return nil
}

func matchesTwoShards(ctx context.Context, d doneJob) error {
	var parts []*report.Report
	for _, sh := range scenario.SplitSpan(0, d.rep.TotalRuns, 2) {
		job := d.job
		job.Shard = sh
		part, err := scenario.RunJob(ctx, job)
		if err != nil {
			return err
		}
		parts = append(parts, part)
	}
	merged, err := report.Merge(parts...)
	if err != nil {
		return err
	}
	sum, err := digest(merged)
	if err != nil {
		return err
	}
	if sum != d.sum {
		return errors.New("two-shard merge differs from the whole job")
	}
	return nil
}

// digest hashes a report's binary encoding with the wall-clock
// ElapsedMS provenance field zeroed: equal digests mean byte-equal
// reports.
func digest(r *report.Report) ([sha256.Size]byte, error) {
	c := *r
	c.ElapsedMS = 0
	var buf bytes.Buffer
	if err := report.WriteEncoded(&buf, []*report.Report{&c}, report.EncodingBinary); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// checked is how many outputs check verifies.
func (w window) checked(fleet bool) int {
	if fleet {
		return len(w.done)
	}
	n := 0
	for _, d := range w.done {
		if d.rep != nil {
			n++
		}
	}
	return n
}

// measuredRun is the untraced run of one workload: the slices' parts
// pooled into the end-to-end metrics.
func measuredRun(ctx context.Context, w *workload, o options) (result, artifact, error) {
	bank, err := os.MkdirTemp(workDir, w.name+"-bank-")
	if err != nil {
		return result{}, artifact{}, err
	}
	defer os.RemoveAll(bank)
	o.bank = bank
	parts, setupS, err := measureSlices(ctx, w, o)
	if err != nil {
		return result{}, artifact{}, err
	}
	var (
		jobMS, rss, stolen          []float64
		runs, attempted, failed, ok int
		busy, cpu                   time.Duration
		mallocs, allocBytes         uint64
	)
	for _, p := range parts {
		// Wall times count only the share of the window this virtual
		// machine ran: the time the hypervisor gave to other guests is
		// spread over the window's jobs, and the program cannot move it.
		ran := 1 - p.Stolen
		for _, ms := range p.JobMS {
			jobMS = append(jobMS, ms*ran)
		}
		stolen = append(stolen, p.Stolen)
		rss = append(rss, p.PeakRSSMB)
		runs += p.Runs
		attempted += p.Attempted
		failed += p.Failed
		ok += p.Checked
		busy += time.Duration(float64(p.BusyNS) * ran)
		cpu += time.Duration(p.CPUNS)
		mallocs += p.Mallocs
		allocBytes += p.AllocBytes
	}
	r := float64(runs)
	det := map[string]detail{
		"runs_per_s":          {Value: r / busy.Seconds(), Unit: "1/s"},
		"job_ms_p50":          sampled(jobMS, "ms"),
		"job_ms_p90":          {Value: percentile(jobMS, 90), Unit: "ms", N: len(jobMS)},
		"setup_s":             sampled(setupS, "s"),
		"cpu_ms_per_run":      {Value: float64(cpu) / float64(time.Millisecond) / r, Unit: "ms"},
		"allocs_per_run":      {Value: float64(mallocs) / r, Unit: "count"},
		"alloc_bytes_per_run": {Value: float64(allocBytes) / r, Unit: "bytes"},
		"peak_rss_mb":         sampled(rss, "MB"),
	}
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for n, d := range det {
		res.Metrics[n] = metric{Value: d.Value, Unit: d.Unit}
	}
	det["failed_ratio"] = detail{Value: float64(failed) / float64(attempted), Unit: "ratio", N: attempted}
	det["steal_share"] = sampled(stolen, "ratio")
	art := artifact{Detail: det, Notes: []string{
		fmt.Sprintf("%d jobs of %d runs over %d fresh processes, %.3fs busy; %d outputs checked", len(jobMS), w.spec.Runs, len(parts), busy.Seconds(), ok),
	}}
	return res, art, nil
}
