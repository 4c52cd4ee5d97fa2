package tune

import (
	"testing"

	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
)

func testChain(t *testing.T) *markov.Chain {
	t.Helper()
	return markov.MustNew([][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.1, 0.2, 0.3, 0.4},
		{0.4, 0.3, 0.2, 0.1},
		{0.5, 0, 0.5, 0},
	})
}

// TestBlockSizeIsBlockWidth pins the fixed geometry: every kernel shape,
// degenerate ones included, dispatches at the engine's BlockWidth.
func TestBlockSizeIsBlockWidth(t *testing.T) {
	c := testChain(t)
	for _, tc := range []struct {
		chain *markov.Chain
		U, T  int
	}{{c, 4, 50}, {c, 180, 100}, {nil, 4, 50}, {c, 0, 50}, {c, 4, 1}} {
		if got := BlockSize(tc.chain, tc.U, tc.T); got != engine.BlockWidth {
			t.Fatalf("BlockSize(U=%d, T=%d) = %d, want engine.BlockWidth %d", tc.U, tc.T, got, engine.BlockWidth)
		}
	}
}

func TestSweepShape(t *testing.T) {
	c := testChain(t)
	sweep := Sweep(c, 2, 20)
	if len(sweep) != len(Candidates) {
		t.Fatalf("sweep has %d entries, want %d", len(sweep), len(Candidates))
	}
	for i, cand := range sweep {
		if cand.BlockSize != Candidates[i] {
			t.Fatalf("sweep[%d].BlockSize = %d, want %d", i, cand.BlockSize, Candidates[i])
		}
		if cand.NsPerLaneSlot <= 0 {
			t.Fatalf("sweep[%d] measured %v ns/lane-slot", i, cand.NsPerLaneSlot)
		}
	}
	if Sweep(nil, 2, 20) != nil {
		t.Fatal("nil chain sweep should be nil")
	}
}
