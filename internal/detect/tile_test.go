package detect

import (
	"sync"
	"testing"

	"chaffmec/internal/markov"
)

// TestScoreBlockTiledMatchesScalar pins the tiled ScoreBlock against
// the scalar pipeline bit for bit, including a geometry wide enough
// (B·U > blockTileLanes) that the tiled sweep actually splits into
// several run tiles.
func TestScoreBlockTiledMatchesScalar(t *testing.T) {
	score, foreign := scoringChains(t)
	cases := []struct {
		name     string
		sample   *markov.Chain
		dupEvery int
		B, U, T  int
		user     int
	}{
		{name: "single-tile", sample: score, B: 8, U: 5, T: 25, user: 1},
		{name: "tie-heavy", sample: score, dupEvery: 2, B: 6, U: 6, T: 12, user: 0},
		{name: "minus-inf", sample: foreign, B: 5, U: 4, T: 16, user: 2},
		// 48*64 = 3072 lanes > blockTileLanes: the tiled kernel walks two
		// run tiles.
		{name: "multi-tile", sample: score, B: 48, U: 64, T: 8, user: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := batchScoreCase(t, tc.sample, tc.B, tc.U, tc.T, tc.dupEvery, 901)
			det := NewMLDetector(score)
			tiled := fillBlock(t, NewWorkspace(), runs)
			if err := det.ScoreBlock(tiled, tc.user); err != nil {
				t.Fatalf("ScoreBlock: %v", err)
			}
			compareBlock(t, tc.name, tiled, det, runs, tc.user)
		})
	}
}

// TestBlockGrowsInPlace pins the arena-reuse contract: reshaping to a
// geometry the backing arrays can already hold reuses them in place (no
// reallocation), while a larger geometry grows them.
func TestBlockGrowsInPlace(t *testing.T) {
	ws := NewWorkspace()
	big := ws.Block(16, 4, 32)
	p := &big.traj[0]
	q := &big.track[0]

	small := ws.Block(8, 2, 16)
	if small != big {
		t.Fatal("Block returned a different arena object on reshape")
	}
	if &small.traj[0] != p || &small.track[0] != q {
		t.Fatal("shrinking reshape reallocated backing arrays")
	}
	if small.Runs() != 8 || small.Trajectories() != 2 || small.Slots() != 16 {
		t.Fatalf("reshaped dims %d×%d×%d, want 8×2×16", small.Runs(), small.Trajectories(), small.Slots())
	}

	grown := ws.Block(64, 8, 64)
	if &grown.traj[0] == p {
		t.Fatal("growing reshape kept a too-small trajectory array")
	}
}

// TestBlockReshapeInvalidatesSeries demonstrates the documented
// invalidation of previously returned Tracking/Detection series: they
// alias the arena, so a reshape + rescore rewrites what old views see —
// callers must copy results out before reusing the workspace.
func TestBlockReshapeInvalidatesSeries(t *testing.T) {
	score, _ := scoringChains(t)
	det := NewMLDetector(score)
	ws := NewWorkspace()

	const B, U, T = 4, 3, 10
	runs := batchScoreCase(t, score, B, U, T, 0, 71)
	blk := fillBlock(t, ws, runs)
	if err := det.ScoreBlock(blk, 0); err != nil {
		t.Fatal(err)
	}
	stale := blk.Tracking(0)
	snapshot := append([]float64(nil), stale...)

	// Same arena, different geometry and data: the stale view now reads
	// run 0's slots of the NEW layout.
	runs2 := batchScoreCase(t, score, B, U, T, 2, 72)
	blk2 := fillBlock(t, ws, runs2)
	if err := det.ScoreBlock(blk2, 1); err != nil {
		t.Fatal(err)
	}
	fresh := blk2.Tracking(0)
	if &stale[0] != &fresh[0] {
		t.Fatal("reshape with unchanged capacity moved the tracking arena")
	}
	same := true
	for i := range stale {
		if stale[i] != snapshot[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("rescore left the stale series view unchanged; invalidation test is vacuous")
	}
}

// TestPooledWorkspacesDoNotShareBlocks runs concurrent get/score/release
// cycles through the workspace pool under the race detector: if two live
// workspaces ever shared a Block arena, the concurrent ScoreBlock writes
// would race.
func TestPooledWorkspacesDoNotShareBlocks(t *testing.T) {
	score, _ := scoringChains(t)
	det := NewMLDetector(score)
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const B, U, T = 4, 3, 12
			tr := make(markov.Trajectory, T)
			for i := 0; i < rounds; i++ {
				ws := GetWorkspace()
				blk := ws.Block(B, U, T)
				for r := 0; r < B; r++ {
					for u := 0; u < U; u++ {
						for tt := range tr {
							tr[tt] = (g + r + u + tt + i) % score.NumStates()
						}
						if err := blk.SetTrajectory(r, u, tr); err != nil {
							errs <- err
							ws.Release()
							return
						}
					}
				}
				if err := det.ScoreBlock(blk, 0); err != nil {
					errs <- err
					ws.Release()
					return
				}
				ws.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
