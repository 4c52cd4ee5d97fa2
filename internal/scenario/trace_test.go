package scenario

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"chaffmec/internal/figures"
	"chaffmec/internal/store"
)

// stubLabBuilder swaps the cold-build seam for a counting stub and
// resets the shared cache around the test — the LRU tests must not pay
// for (or be warmed by) real trace pipelines.
func stubLabBuilder(t *testing.T, build func(figures.TraceConfig) (*figures.TraceLab, error)) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	orig := buildTraceLab
	buildTraceLab = func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		calls.Add(1)
		return build(cfg)
	}
	ResetTraceLabCache()
	t.Cleanup(func() {
		buildTraceLab = orig
		ResetTraceLabCache()
	})
	return &calls
}

func labCfg(seed int64) figures.TraceConfig {
	return figures.TraceConfig{Seed: seed, Nodes: 10, Minutes: 5}
}

// TestTraceLabBuildsCountsInFlightBuild: a build counts from the moment
// it starts, so a probe taken while a cancelled shard's build is still
// running (the worker's /v1/healthz counter) already sees it.
func TestTraceLabBuildsCountsInFlightBuild(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	stubLabBuilder(t, func(figures.TraceConfig) (*figures.TraceLab, error) {
		close(started)
		<-release
		return &figures.TraceLab{}, nil
	})
	before := TraceLabBuilds()
	done := make(chan error)
	go func() {
		_, err := sharedTraceLab(labCfg(1))
		done <- err
	}()
	<-started
	got := TraceLabBuilds() - before
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("in-flight build counted %d times, want 1", got)
	}
}

func TestSharedTraceLabCachesAndEvictsLRU(t *testing.T) {
	calls := stubLabBuilder(t, func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		return &figures.TraceLab{Horizon: int(cfg.Seed)}, nil
	})

	// Fill the cache to capacity; each distinct config builds once.
	for seed := int64(1); seed <= traceLabCacheCap; seed++ {
		for i := 0; i < 2; i++ {
			lab, err := sharedTraceLab(labCfg(seed))
			if err != nil {
				t.Fatal(err)
			}
			if lab.Horizon != int(seed) {
				t.Fatalf("seed %d got lab %d", seed, lab.Horizon)
			}
		}
	}
	if got := calls.Load(); got != traceLabCacheCap {
		t.Fatalf("%d builds for %d configs", got, traceLabCacheCap)
	}

	// Touch config 1 so config 2 is now the least recently used, then
	// insert a new config: 2 must be evicted, 1 retained.
	if _, err := sharedTraceLab(labCfg(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sharedTraceLab(labCfg(traceLabCacheCap + 1)); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	if _, err := sharedTraceLab(labCfg(1)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Fatal("recently used config was evicted")
	}
	if _, err := sharedTraceLab(labCfg(2)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("least recently used config was not evicted")
	}
}

func TestSharedTraceLabSingleFlight(t *testing.T) {
	release := make(chan struct{})
	calls := stubLabBuilder(t, func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		<-release // hold every concurrent caller at the build
		return &figures.TraceLab{Horizon: 7}, nil
	})

	const waiters = 16
	var wg sync.WaitGroup
	labs := make([]*figures.TraceLab, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lab, err := sharedTraceLab(labCfg(1))
			if err != nil {
				t.Error(err)
				return
			}
			labs[i] = lab
		}(i)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d builds for %d concurrent callers of one config", got, waiters)
	}
	for i := 1; i < waiters; i++ {
		if labs[i] != labs[0] {
			t.Fatal("concurrent callers received different lab instances")
		}
	}
}

func TestSharedTraceLabDoesNotCacheErrors(t *testing.T) {
	fail := true
	boom := errors.New("boom")
	calls := stubLabBuilder(t, func(cfg figures.TraceConfig) (*figures.TraceLab, error) {
		if fail {
			return nil, boom
		}
		return &figures.TraceLab{Horizon: 9}, nil
	})

	if _, err := sharedTraceLab(labCfg(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call retries the build
	// and succeeds.
	fail = false
	lab, err := sharedTraceLab(labCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if lab.Horizon != 9 {
		t.Fatalf("got lab %d", lab.Horizon)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d builds, want a retry after the failure", got)
	}
	// And the success IS cached.
	if _, err := sharedTraceLab(labCfg(1)); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d builds, want the success cached", got)
	}
}

// TestTraceLabStoreWarmStart is the persistence acceptance property at
// the unit level: with a warm artifact store, a fresh cache (a fresh
// process) loads the lab from disk and never runs the build pipeline;
// a corrupt artifact falls back to a rebuild.
func TestTraceLabStoreWarmStart(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	store.SetDefault(st)
	t.Cleanup(func() { store.SetDefault(nil) })

	// A real (reduced) lab: the store round-trips the encoded artifact.
	cfg := figures.TraceConfig{
		Seed: 6, Nodes: 40, Minutes: 20,
		TowerClusters: 3, TowersPerCluster: 10, BackgroundTowers: 40,
	}
	ResetTraceLabCache()
	t.Cleanup(ResetTraceLabCache)
	cold, err := sharedTraceLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldBuilds := TraceLabBuilds()

	ResetTraceLabCache() // simulate a fresh process
	warm, err := sharedTraceLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if TraceLabBuilds() != coldBuilds {
		t.Fatal("warm-store load ran the build pipeline")
	}
	if warm.Horizon != cold.Horizon || len(warm.Trajectories) != len(cold.Trajectories) {
		t.Fatal("stored lab differs from built lab")
	}

	// Corrupt the artifact: the loader must evict it and rebuild.
	key := traceLabStoreKey(cfg)
	if err := st.Put(storeKindTraceLab, key, []byte("corrupt")); err != nil {
		t.Fatal(err)
	}
	ResetTraceLabCache()
	if _, err := sharedTraceLab(cfg); err != nil {
		t.Fatal(err)
	}
	if TraceLabBuilds() != coldBuilds+1 {
		t.Fatal("corrupt artifact did not trigger a rebuild")
	}
	// ...and the rebuild re-persisted a good artifact.
	blob, ok, err := st.Get(storeKindTraceLab, key)
	if err != nil || !ok {
		t.Fatalf("artifact missing after rebuild: ok=%v err=%v", ok, err)
	}
	if string(blob) == "corrupt" {
		t.Fatal("corrupt artifact still in store")
	}
}
