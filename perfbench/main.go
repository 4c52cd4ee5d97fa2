// Command perfbench is the repository benchmark: one closed-loop harness
// for four workloads (see workloads.go), timed end to end with tracing
// off, plus a separate traced run that attributes time to the
// repository's layers by timing the benchmark's own calls into their
// public functions. perfbench/run.py builds it hermetically and runs it;
// README.md beside this file documents the workloads and metrics.
//
//	perfbench -workload paper-mo -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full artifact (host fingerprint, sample counts, spreads, and the
// end-to-end metric each per-layer metric should move).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// numSlices is how many fresh processes share a measured run: each sets
// the workload up cold (one setup_s sample) and measures an equal part
// of the window. Per-process effects — the block-width calibration's
// pick, heap layout — average over the slices instead of deciding the
// whole run.
const numSlices = 10

// workDir holds every file a run writes (artifact stores); it is
// relative to the checkout root the benchmark runs from.
var workDir = filepath.Join(".bench_build", "perfbench")

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// artifact is the full record printed on the line before the result.
type artifact struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Trace       bool              `json:"trace"`
	Detail      map[string]detail `json:"detail"`
	Notes       []string          `json:"notes,omitempty"`
}

// detail documents one metric: its samples' median and quartiles, the
// sample count, and (per-layer metrics) what it should move.
type detail struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P25   float64 `json:"p25,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	Moves string  `json:"moves,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// slice is the index of the measuring child process (-1 in the
	// parent); job seeds derive from (seed, slice, job index).
	slice int
	// slowShard adds a fixed delay to every fleet shard dispatch: the
	// seeded slowdown the liveness self-check must catch.
	slowShard  time.Duration
	spans      string
	cpuprofile string
	// bank is the fleet's shard-banking store, shared by a run's slices
	// so its fan-out directories are created once per run.
	bank string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o         options
		traceFlag int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every job seed derives from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics of every workload")
	flag.DurationVar(&o.slowShard, "slow-shard", 0, "seeded slowdown: delay added to every fleet shard dispatch")
	flag.StringVar(&o.spans, "spans", "", "traced run: write every recorded span to this JSON-lines file")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of each measured window to this path plus the slice number")
	flag.IntVar(&o.slice, "slice", -1, "internal: measure one slice of the window in this process")
	flag.StringVar(&o.bank, "bank", "", "internal: shard-banking store directory of the fleet workload")
	flag.Parse()
	o.trace = traceFlag == 1

	// Hermetic set-up: an ambient artifact store or block-width pin
	// would hide the calibration and TraceLab costs setup_s must charge.
	os.Unsetenv("CHAFFMEC_STORE")
	os.Unsetenv("CHAFFMEC_BLOCK")

	w := lookup(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx := context.Background()
	if o.slice >= 0 {
		if err := runSlice(ctx, w, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s slice %d: %v\n", w.name, o.slice, err)
			return 1
		}
		return 0
	}

	var (
		res  result
		art  artifact
		err  error
		name = w.name
	)
	if o.trace {
		o.slice = 0
		res, art, err = tracedRun(ctx, o)
		name = "all"
	} else {
		res, art, err = measuredRun(ctx, w, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	art.Fingerprint, art.Workload, art.Trace = takeFingerprint(o), name, o.trace
	printTable(art)
	line, err := json.Marshal(art)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d jobs failed or mismatched\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// profileWindow starts and stops the optional CPU profile around the
// measured window only.
var profileWindow = func(start bool) {}

// part is one slice's measurement, sent to the parent as JSON.
type part struct {
	JobMS      []float64 `json:"job_ms"`
	Runs       int       `json:"runs"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Checked    int       `json:"checked"`
	BusyNS     int64     `json:"busy_ns"`
	CPUNS      int64     `json:"cpu_ns"`
	Mallocs    uint64    `json:"mallocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	Stolen     float64   `json:"stolen"`
}

// runSlice is a measuring child: it sets the workload up cold, reports
// ready (the parent's setup_s clock stops there), measures its part of
// the window, checks the outputs and prints its part.
func runSlice(ctx context.Context, w *workload, o options) error {
	b, err := setUp(ctx, w, o, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	fmt.Println("ready")
	if o.cpuprofile != "" {
		f, err := os.Create(fmt.Sprintf("%s.%d", o.cpuprofile, o.slice))
		if err != nil {
			return err
		}
		defer f.Close()
		profileWindow = func(start bool) {
			if !start {
				pprof.StopCPUProfile()
			} else if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			}
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	settle := time.Duration(settleShare * float64(budget))
	if w.fleet && o.slice == 0 {
		// The first slice also fills the fan-out directories of the
		// run's shared bank store.
		settle += time.Duration(bankSettleShare * numSlices * float64(budget))
	}
	win, err := b.measure(ctx, settle, budget, false)
	if err != nil {
		return err
	}
	// Peak RSS is read before the output checks, which are the
	// benchmark's own work.
	p := part{
		JobMS:      win.jobMS,
		Runs:       win.runs,
		Attempted:  win.attempted,
		Checked:    win.checked(b.fleet != nil),
		BusyNS:     int64(win.busy),
		CPUNS:      int64(win.cpu),
		Mallocs:    win.mallocs,
		AllocBytes: win.allocBytes,
		PeakRSSMB:  peakRSSMB(),
		Stolen:     win.stolen,
	}
	p.Failed = win.failed + b.check(ctx, win)
	line, err := json.Marshal(p)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureSlices runs the slices one after another, each a fresh process
// of this binary measuring seconds/numSlices, and returns their parts and
// setup_s samples (exec to ready, less the share of it the hypervisor
// took from this virtual machine).
func measureSlices(ctx context.Context, w *workload, o options) ([]part, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var (
		parts []part
		setup []float64
	)
	for k := 0; k < numSlices; k++ {
		args := []string{"-slice", fmt.Sprint(k), "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds / numSlices), "-slow-shard", o.slowShard.String(), "-bank", o.bank}
		if o.cpuprofile != "" {
			args = append(args, "-cpuprofile", o.cpuprofile)
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		begin, stat0 := time.Now(), readCPUStat()
		if err := cmd.Start(); err != nil {
			return nil, nil, err
		}
		sc := bufio.NewScanner(stdout)
		sc.Buffer(nil, 64<<20)
		ready := sc.Scan() && sc.Text() == "ready"
		d := time.Duration(float64(time.Since(begin)) * (1 - readCPUStat().stolenSince(stat0)))
		var last string
		for sc.Scan() {
			last = sc.Text()
		}
		if err := cmd.Wait(); err != nil {
			return nil, nil, fmt.Errorf("slice %d: %w", k, err)
		}
		var p part
		if !ready {
			return nil, nil, fmt.Errorf("slice %d exited without reporting ready", k)
		}
		if err := json.Unmarshal([]byte(last), &p); err != nil {
			return nil, nil, fmt.Errorf("slice %d: %w", k, err)
		}
		parts = append(parts, p)
		setup = append(setup, d.Seconds())
	}
	return parts, setup, nil
}

// printTable writes the human-readable view of an artifact to stderr.
func printTable(a artifact) {
	names := make([]string, 0, len(a.Detail))
	for n := range a.Detail {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(os.Stderr, "perfbench %s (trace=%v) on %s, %s, %d CPUs\n",
		a.Workload, a.Trace, a.Fingerprint.CPUModel, a.Fingerprint.GoVersion, a.Fingerprint.NumCPU)
	for _, n := range names {
		d := a.Detail[n]
		fmt.Fprintf(os.Stderr, "  %-48s %14.4f %-6s", n, d.Value, d.Unit)
		if d.N > 0 {
			fmt.Fprintf(os.Stderr, " n=%-5d", d.N)
		}
		if d.P75 > 0 {
			fmt.Fprintf(os.Stderr, " p25=%.4g p75=%.4g", d.P25, d.P75)
		}
		if d.Moves != "" {
			fmt.Fprintf(os.Stderr, " -> %s", d.Moves)
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, n := range a.Notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
}

// quartiles returns the median and the first and third quartiles of xs
// (linear interpolation between order statistics).
func quartiles(xs []float64) (p25, p50, p75 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)
}

// percentile returns the p-th percentile of xs without modifying it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// sampled summarizes samples into a detail reported at their median.
func sampled(xs []float64, unit string) detail {
	p25, p50, p75 := quartiles(xs)
	return detail{Value: p50, Unit: unit, N: len(xs), P25: p25, P75: p75}
}
