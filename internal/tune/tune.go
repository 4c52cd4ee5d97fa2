// Package tune measures the engine's block geometry: how the tiled ML
// scoring kernel's throughput varies with the number of Monte-Carlo runs
// per dispatch chunk, over the candidate widths {16, 32, 64, 128, 256}
// for a live kernel shape — chain size n, trajectories per run U,
// horizon T. Sweep is the measurement behind the engine's fixed
// BlockWidth; the kernel benchmark reports it next to that width so a
// host where another width wins by a wide margin is visible.
//
// Measurement never touches result streams: it draws from a fixed local
// rng stream unrelated to any experiment's seed, and block width only
// changes how many runs travel per chunk (engine results are
// bit-identical at any chunking).
package tune

import (
	"time"

	"chaffmec/internal/detect"
	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/rng"
)

// Candidates are the block widths Sweep measures, in measurement order.
// 256 matches the engine's dispatch clamp; widths below 16 pay more
// dispatch overhead than any cache effect can buy back.
var Candidates = [...]int{16, 32, 64, 128, 256}

// calibSeed feeds the measurement block's trajectories. It is a local
// constant: measurement trajectories exist only to exercise the kernel's
// memory-access pattern and never touch experiment streams.
const calibSeed = 0x7e57b10c

// laneSlotBudget bounds the work per candidate: roughly
// laneSlotBudget lane-slots are scored per width (split over
// calibPasses timing passes, best pass kept), keeping a full sweep in
// the low milliseconds.
const laneSlotBudget = 1 << 17

// calibPasses is how many timing passes each candidate gets; the
// minimum is kept, damping scheduler noise without a larger budget.
const calibPasses = 3

// calibHorizon caps the measured horizon: the per-slot working set
// depends on B·U, not on T, so long experiments are measured on a
// truncated horizon instead of scoring millions of slots.
const calibHorizon = 64

// Candidate is one measured width of a Sweep.
type Candidate struct {
	BlockSize     int     `json:"block_size"`
	NsPerLaneSlot float64 `json:"ns_per_lane_slot"`
}

// BlockSize returns the engine dispatch width for a kernel shape
// (chain, U trajectories per run, horizon T): engine.BlockWidth for
// every shape.
func BlockSize(chain *markov.Chain, U, T int) int {
	return engine.BlockWidth
}

// Sweep measures every candidate width against the live chain and
// kernel shape and returns the per-width timings. The measured kernel
// is the tiled ML block scorer (the batch hot path's dominant cost);
// trajectories are drawn once per width from a fixed measurement
// stream.
func Sweep(chain *markov.Chain, U, T int) []Candidate {
	if chain == nil || U < 1 || T < 2 {
		return nil
	}
	if T > calibHorizon {
		T = calibHorizon
	}
	det := detect.NewMLDetector(chain)
	out := make([]Candidate, 0, len(Candidates))
	for _, B := range Candidates {
		ns := measure(chain, det, B, U, T)
		out = append(out, Candidate{BlockSize: B, NsPerLaneSlot: ns})
	}
	return out
}

// measure times reps tiled sweeps of a B×U×T block and returns the best
// pass's ns per lane-slot (0 when the kernel shape cannot be scored).
func measure(chain *markov.Chain, det *detect.MLDetector, B, U, T int) float64 {
	ws := detect.GetWorkspace()
	defer ws.Release()
	blk := ws.Block(B, U, T)

	// Trajectories come from one fixed measurement stream: the kernel's
	// real gather pattern is what matters, not distinct run streams.
	src := rng.New(calibSeed)
	tr := make(markov.Trajectory, T)
	for r := 0; r < B; r++ {
		for u := 0; u < U; u++ {
			if err := chain.SampleInto(src, tr); err != nil {
				return 0
			}
			if err := blk.SetTrajectory(r, u, tr); err != nil {
				return 0
			}
		}
	}

	laneSlots := B * U * T
	reps := laneSlotBudget / (calibPasses * laneSlots)
	if reps < 1 {
		reps = 1
	}
	if err := det.ScoreBlock(blk, 0); err != nil { // warm caches, surface errors
		return 0
	}
	best := time.Duration(0)
	for pass := 0; pass < calibPasses; pass++ {
		begin := time.Now()
		for i := 0; i < reps; i++ {
			if err := det.ScoreBlock(blk, 0); err != nil {
				return 0
			}
		}
		d := time.Since(begin)
		if best == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(reps*laneSlots)
}
