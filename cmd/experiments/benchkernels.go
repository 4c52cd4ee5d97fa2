package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"chaffmec/internal/chaff"
	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/mobility"
	"chaffmec/internal/rng"
	"chaffmec/internal/sim"
	"chaffmec/internal/tune"
)

// benchBatch is the block width of the batch kernel legs — the engine's
// RunBlock dispatch width, i.e. the width the hot path actually runs at
// under the paper protocol.
const benchBatch = engine.BlockWidth

// kernelLeg is one measured kernel: nanoseconds per trajectory slot and
// heap allocations per Monte-Carlo run (both averaged over the
// benchmark's iterations, warm caches).
type kernelLeg struct {
	Name         string  `json:"name"`
	NsPerSlot    float64 `json:"ns_per_slot"`
	AllocsPerRun float64 `json:"allocs_per_run"`
}

// kernelsBench is the BENCH_kernels.json artifact: the scalar and batch
// variants of the two hot kernels (Markov sampling, tiled detector
// scoring), the block-width sweep, plus the end-to-end paper protocol
// (1000 runs × T=100, MO) through the batch engine path. The committed
// BENCH_kernels.baseline.json has the same shape; CI fails when a
// kernel's ns/slot regresses more than 25% over it, when a batch kernel
// allocates per run again, or when the tiled scorer's edge over the
// scalar scorer drops under the 1.3x acceptance floor.
type kernelsBench struct {
	Stream     string `json:"stream"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Cells      int    `json:"cells"`
	Horizon    int    `json:"horizon"`
	Batch      int    `json:"batch"`

	Kernels []kernelLeg `json:"kernels"`

	// SampleSpeedup and TiledSpeedup are scalar-over-batch ns/slot
	// ratios of the sampling and scoring kernels; TiledSpeedup is
	// CI-gated.
	SampleSpeedup float64 `json:"sample_speedup"`
	TiledSpeedup  float64 `json:"tiled_speedup"`

	// GeometrySweep times the tiled scorer at every candidate block
	// width on this host; FastestBlock is its winner, reported next to
	// Batch, the engine's fixed BlockWidth.
	FastestBlock  int              `json:"fastest_block"`
	GeometrySweep []tune.Candidate `json:"geometry_sweep"`

	PaperProtocol struct {
		Runs         int     `json:"runs"`
		Horizon      int     `json:"horizon"`
		Strategy     string  `json:"strategy"`
		WallMS       float64 `json:"wall_ms"`
		AllocsPerRun float64 `json:"allocs_per_run"`
	} `json:"paper_protocol"`
}

func (b *kernelsBench) kernel(name string) *kernelLeg {
	for i := range b.Kernels {
		if b.Kernels[i].Name == name {
			return &b.Kernels[i]
		}
	}
	return nil
}

// benchKernels measures the kernel suite, writes the JSON artifact and,
// when basePath names a committed baseline, gates against it.
func benchKernels(path, basePath string, runs, horizon int, seed int64) error {
	out, err := measureKernels(runs, horizon, seed)
	if err != nil {
		return fmt.Errorf("bench-kernels: %w", err)
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	for _, k := range out.Kernels {
		fmt.Printf("bench-kernels: %-14s %8.2f ns/slot %8.2f allocs/run\n", k.Name, k.NsPerSlot, k.AllocsPerRun)
	}
	fmt.Printf("bench-kernels: tiled speedup %.2fx over scalar\n", out.TiledSpeedup)
	width, fastest := sweepRow(out.GeometrySweep, out.Batch), sweepRow(out.GeometrySweep, out.FastestBlock)
	fmt.Printf("bench-kernels: block width %d at %.2f ns/lane-slot; fastest %d at %.2f\n",
		width.BlockSize, width.NsPerLaneSlot, fastest.BlockSize, fastest.NsPerLaneSlot)
	if width.NsPerLaneSlot > 1.10*fastest.NsPerLaneSlot {
		fmt.Fprintf(os.Stderr, "bench-kernels: warning: block width %d is %.0f%% behind width %d on this host\n",
			width.BlockSize, 100*(width.NsPerLaneSlot/fastest.NsPerLaneSlot-1), fastest.BlockSize)
	}
	fmt.Printf("bench-kernels: paper protocol (%d runs × T=%d, %s): %.1f ms, %.1f allocs/run\n",
		out.PaperProtocol.Runs, out.PaperProtocol.Horizon, out.PaperProtocol.Strategy,
		out.PaperProtocol.WallMS, out.PaperProtocol.AllocsPerRun)
	fmt.Printf("wrote %s\n", path)
	if basePath == "" {
		return nil
	}
	return compareKernels(out, basePath)
}

// compareKernels gates the measured suite against the committed
// baseline: >25% ns/slot regression on any kernel the baseline knows
// fails, as does a batch kernel that allocates per run (an absolute,
// machine-independent property the SoA arenas are meant to guarantee).
func compareKernels(cur *kernelsBench, basePath string) error {
	blob, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("bench-kernels baseline: %w", err)
	}
	var base kernelsBench
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("bench-kernels baseline %s: %w", basePath, err)
	}
	var failures []string
	for _, bk := range base.Kernels {
		ck := cur.kernel(bk.Name)
		if ck == nil {
			failures = append(failures, fmt.Sprintf("kernel %q in baseline but not measured", bk.Name))
			continue
		}
		if limit := bk.NsPerSlot * 1.25; ck.NsPerSlot > limit {
			failures = append(failures, fmt.Sprintf("%s: %.2f ns/slot exceeds baseline %.2f +25%% (%.2f)",
				bk.Name, ck.NsPerSlot, bk.NsPerSlot, limit))
		}
	}
	for _, name := range []string{"sample/batch", "score/tiled"} {
		if ck := cur.kernel(name); ck != nil && ck.AllocsPerRun >= 1 {
			failures = append(failures, fmt.Sprintf("%s: %.2f allocs/run, want < 1 (warm batch kernels must not allocate)",
				name, ck.AllocsPerRun))
		}
	}
	// The tiled scorer's edge over the scalar scorer is an absolute,
	// machine-independent acceptance floor (both run on the same host in
	// the same process), not a baseline-relative one.
	if cur.TiledSpeedup > 0 && cur.TiledSpeedup < 1.3 {
		failures = append(failures, fmt.Sprintf("score/tiled is only %.2fx faster than score/scalar, want >= 1.3x",
			cur.TiledSpeedup))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "bench-kernels: REGRESSION:", f)
		}
		return fmt.Errorf("bench-kernels: %d regression(s) against %s", len(failures), basePath)
	}
	fmt.Printf("bench-kernels: within baseline %s\n", basePath)
	return nil
}

func measureKernels(runs, horizon int, seed int64) (*kernelsBench, error) {
	const cells = 10
	chain, err := mobility.Build(mobility.ModelSpatiallySkewed, rng.New(99), cells)
	if err != nil {
		return nil, err
	}
	T := horizon
	out := &kernelsBench{
		Stream:     rng.StreamVersion,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cells:      cells,
		Horizon:    T,
		Batch:      benchBatch,
	}

	// --- sampling kernels ---
	var benchErr error
	scalarSample := testing.Benchmark(func(b *testing.B) {
		src := rng.NewSource(0)
		r := rand.New(src)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reseed(seed, i)
			if _, err := chain.Sample(r, T); err != nil {
				benchErr = err
				return
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	out.Kernels = append(out.Kernels, kernelLeg{
		Name:         "sample/scalar",
		NsPerSlot:    float64(scalarSample.NsPerOp()) / float64(T),
		AllocsPerRun: float64(scalarSample.AllocsPerOp()),
	})

	batchSample := testing.Benchmark(func(b *testing.B) {
		srcs := make([]rng.Source, benchBatch)
		bank := make([]*rand.Rand, benchBatch)
		for i := range srcs {
			bank[i] = rand.New(&srcs[i])
		}
		dst := make([]int32, benchBatch*T)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range srcs {
				srcs[j].Reseed(seed, i*benchBatch+j)
			}
			if err := chain.SampleBatch(bank, T, dst); err != nil {
				benchErr = err
				return
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	out.Kernels = append(out.Kernels, kernelLeg{
		Name:         "sample/batch",
		NsPerSlot:    float64(batchSample.NsPerOp()) / float64(benchBatch*T),
		AllocsPerRun: float64(batchSample.AllocsPerOp()) / benchBatch,
	})

	// --- scoring kernels: user + 3 IM chaffs, the ML detector ---
	const U = 4
	det := detect.NewMLDetector(chain)
	runsTrs := make([][]markov.Trajectory, benchBatch)
	for r := range runsTrs {
		stream := rng.NewRun(seed, r)
		trs := make([]markov.Trajectory, U)
		for u := range trs {
			if trs[u], err = chain.Sample(stream, T); err != nil {
				return nil, err
			}
		}
		runsTrs[r] = trs
	}

	scalarScore := testing.Benchmark(func(b *testing.B) {
		ws := detect.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trs := runsTrs[i%benchBatch]
			dets, err := det.PrefixDetectionsWith(ws, trs)
			if err != nil {
				benchErr = err
				return
			}
			if _, err := detect.TrackingAccuracySeries(dets, trs, 0); err != nil {
				benchErr = err
				return
			}
			if _, err := detect.DetectionAccuracySeries(dets, len(trs), 0); err != nil {
				benchErr = err
				return
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	out.Kernels = append(out.Kernels, kernelLeg{
		Name:         "score/scalar",
		NsPerSlot:    float64(scalarScore.NsPerOp()) / float64(T),
		AllocsPerRun: float64(scalarScore.AllocsPerOp()),
	})

	// --- tiled scoring at the engine's block width, plus the width sweep ---
	out.GeometrySweep = tune.Sweep(chain, U, T)
	out.FastestBlock = fastestBlock(out.GeometrySweep)
	tiledScore := testing.Benchmark(func(b *testing.B) {
		ws := detect.NewWorkspace()
		blk := ws.Block(benchBatch, U, T)
		for r, trs := range runsTrs {
			for u, tr := range trs {
				if err := blk.SetTrajectory(r, u, tr); err != nil {
					benchErr = err
					return
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := det.ScoreBlock(blk, 0); err != nil {
				benchErr = err
				return
			}
		}
	})
	if benchErr != nil {
		return nil, benchErr
	}
	out.Kernels = append(out.Kernels, kernelLeg{
		Name:         "score/tiled",
		NsPerSlot:    float64(tiledScore.NsPerOp()) / float64(benchBatch*T),
		AllocsPerRun: float64(tiledScore.AllocsPerOp()) / benchBatch,
	})

	if b := out.kernel("sample/batch").NsPerSlot; b > 0 {
		out.SampleSpeedup = out.kernel("sample/scalar").NsPerSlot / b
	}
	if b := out.kernel("score/tiled").NsPerSlot; b > 0 {
		out.TiledSpeedup = out.kernel("score/scalar").NsPerSlot / b
	}

	// --- end-to-end paper protocol through the batch engine path ---
	sc := sim.Scenario{Chain: chain, Strategy: chaff.NewMO(chain), NumChaffs: 1, Horizon: T}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	if _, err := sim.Run(context.Background(), sc, engine.Options{Runs: runs, Seed: seed}); err != nil {
		return nil, err
	}
	wall := time.Since(begin)
	runtime.ReadMemStats(&after)
	out.PaperProtocol.Runs = runs
	out.PaperProtocol.Horizon = T
	out.PaperProtocol.Strategy = sc.Strategy.Name()
	out.PaperProtocol.WallMS = float64(wall) / float64(time.Millisecond)
	if runs > 0 {
		out.PaperProtocol.AllocsPerRun = float64(after.Mallocs-before.Mallocs) / float64(runs)
	}
	return out, nil
}

// fastestBlock returns the sweep's fastest measured width, ties to the
// smaller (0 when nothing was measured).
func fastestBlock(sweep []tune.Candidate) int {
	best, bestNs := 0, 0.0
	for _, c := range sweep {
		if c.NsPerLaneSlot > 0 && (bestNs == 0 || c.NsPerLaneSlot < bestNs) {
			best, bestNs = c.BlockSize, c.NsPerLaneSlot
		}
	}
	return best
}

// sweepRow returns the sweep's row for width b (zero when absent).
func sweepRow(sweep []tune.Candidate, b int) tune.Candidate {
	for _, c := range sweep {
		if c.BlockSize == b {
			return c
		}
	}
	return tune.Candidate{}
}
