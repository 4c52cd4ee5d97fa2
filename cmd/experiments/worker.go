package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
)

// workerMain is `experiments -worker`: one Job JSON on stdin, its
// Report on stdout as a count-1 binary+gzip CMR1 envelope (the
// Subprocess transport's wire protocol).
// Malformed input exits ExitBadJob with the named error on stderr; a
// SIGTERM/SIGINT mid-shard writes the resumable prefix checkpoint and
// exits ExitPartial. Never returns.
func workerMain(ctx context.Context) {
	err := coordinator.RunWorker(ctx, os.Stdin, os.Stdout)
	if err == nil {
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, "experiments: worker:", err)
	switch {
	case errors.Is(err, coordinator.ErrBadJob):
		os.Exit(coordinator.ExitBadJob)
	case errors.Is(err, coordinator.ErrPartial):
		os.Exit(coordinator.ExitPartial)
	default:
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long every HTTP listener here waits for
// a client's request headers, so a stalled or hostile connection cannot
// pin a server goroutine forever.
const readHeaderTimeout = 10 * time.Second

// serveMain is `experiments -serve ADDR`: a long-lived HTTP worker
// (POST /v1/run, GET /v1/healthz). SIGTERM drains it: in-flight shards abort
// at the next chunk boundary and respond with their checkpointed
// prefix (206), then the server shuts down.
func serveMain(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: coordinator.Handler(ctx), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "experiments: worker serving on %s\n", addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		return srv.Shutdown(sctx)
	}
}

// daemonMain is `experiments -worker-daemon REGISTRY`: the persistent
// half of the elastic fleet. The worker listens for dispatches (on
// -serve ADDR when given, else an ephemeral localhost port), registers
// with the coordinator's registry under its advertised URL and
// capacity weight, heartbeats for its lease, and drains on SIGTERM
// exactly like -serve. A permanently refused registration (stream
// mismatch) is fatal; a briefly unreachable registry is retried with
// backoff.
func daemonMain(ctx context.Context, registryURL, listenAddr, advertise string, weight float64) error {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	if advertise == "" {
		advertise = "http://" + ln.Addr().String()
	}
	srv := &http.Server{Handler: coordinator.Handler(ctx), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()
	go func() {
		errc <- coordinator.RunDaemon(ctx, coordinator.DaemonOptions{
			Registry: registryURL, Advertise: advertise, Weight: weight,
		})
	}()
	fmt.Fprintf(os.Stderr, "experiments: worker %s registering with %s\n", advertise, registryURL)
	select {
	case err = <-errc:
	case <-ctx.Done():
		err = nil
	}
	sctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if serr := srv.Shutdown(sctx); err == nil && serr != nil {
		err = serr
	}
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// registryFleet is the coordinator side of the elastic fleet: serve
// the registration API on addr, wait until fleetMin workers hold
// leases, and hand the live registry to the dispatcher. The returned
// shutdown stops the HTTP listener and the eviction loop.
func registryFleet(ctx context.Context, addr string, fleetMin int) (*coordinator.Registry, func(), error) {
	if fleetMin < 1 {
		return nil, nil, fmt.Errorf("-fleet-min %d: need at least one worker to wait for", fleetMin)
	}
	reg := coordinator.NewRegistry(coordinator.RegistryOptions{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		reg.Close()
		return nil, nil, err
	}
	srv := &http.Server{Handler: reg.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go srv.Serve(ln) //nolint:errcheck // closed by shutdown below
	shutdown := func() {
		sctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		srv.Shutdown(sctx) //nolint:errcheck // exiting anyway
		reg.Close()
	}
	fmt.Fprintf(os.Stderr, "experiments: registry on http://%s, waiting for %d worker(s)\n", ln.Addr(), fleetMin)
	if err := reg.WaitFor(ctx, fleetMin); err != nil {
		shutdown()
		return nil, nil, fmt.Errorf("waiting for %d registered workers: %w", fleetMin, err)
	}
	return reg, shutdown, nil
}

// buildFleet resolves the CLI's fleet selection: -connect URLs (HTTP
// workers elsewhere) or -workers N local subprocess workers, with
// -crash-worker injecting a deterministic mid-shard crash into one of
// them (the CI retry proof).
func buildFleet(workers int, connect string, crashWorker int) ([]coordinator.Transport, error) {
	if connect != "" {
		if crashWorker >= 0 {
			return nil, fmt.Errorf("-crash-worker injects into local subprocess workers; it cannot combine with -connect")
		}
		var urls []string
		for _, u := range strings.Split(connect, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("-connect %q names no worker URLs", connect)
		}
		return coordinator.HTTPFleet(urls...), nil
	}
	if workers < 1 {
		return nil, fmt.Errorf("-workers %d: need at least one", workers)
	}
	fleet := coordinator.SubprocessFleet(workers)
	if crashWorker >= 0 {
		if crashWorker >= workers {
			return nil, fmt.Errorf("-crash-worker %d: fleet has %d workers", crashWorker, workers)
		}
		fleet[crashWorker].(*coordinator.Subprocess).Env = []string{coordinator.EnvCrash + "=exit"}
	}
	return fleet, nil
}

// distributedFlagErr rejects the flag combinations distribution cannot
// honor: the fleet selectors are mutually exclusive, and the
// coordinator owns shard planning and partial merging. -resume IS
// honored distributed: the coordinator extends the checkpoint over the
// fleet and the result stays bit-identical.
func distributedFlagErr(workers int, connect, registry, shardArg, resume string, merge bool, scenFile string) error {
	selected := 0
	for _, on := range []bool{workers > 0, connect != "", registry != ""} {
		if on {
			selected++
		}
	}
	switch {
	case selected > 1:
		return fmt.Errorf("-workers (local subprocesses), -connect (fixed remote URLs) and -registry (elastic registered fleet) are mutually exclusive; pick one")
	case scenFile == "" && resume == "":
		return fmt.Errorf("-workers/-connect/-registry need -scenario (or a -resume checkpoint)")
	case shardArg != "":
		return fmt.Errorf("-workers/-connect/-registry cannot combine with -shard (the coordinator plans the shards)")
	case merge:
		return fmt.Errorf("-workers/-connect/-registry cannot combine with -merge (the coordinator merges its own partials)")
	}
	return nil
}

// fleetProgress logs coordinator events on stderr, one scenario at a
// time — dispatches stay quiet, everything an operator acts on
// (retries, dead workers, store hits, completed rounds) is printed —
// and returns a wireTally summed over every result for the end-of-job
// wire summary.
func fleetProgress(name string) (func(coordinator.Event), *wireTally) {
	rounds := roundProgress(name)
	tally := &wireTally{}
	return func(e coordinator.Event) {
		switch e.Kind {
		case coordinator.EventRound:
			rounds(e.Round)
		case coordinator.EventResult, coordinator.EventPartial:
			tally.add(e.Wire)
			if e.Kind == coordinator.EventPartial {
				fmt.Fprintf(os.Stderr, "%-30s shard %s: %s died mid-shard, banked its prefix (%v)\n",
					name, e.Shard, e.Worker, e.Err)
			}
		case coordinator.EventBanked:
			tally.banked++
			fmt.Fprintf(os.Stderr, "%-30s shard %s: served from the artifact store\n", name, e.Shard)
		case coordinator.EventFailure:
			fmt.Fprintf(os.Stderr, "%-30s shard %s: %s failed, retrying elsewhere (%v)\n",
				name, e.Shard, e.Worker, e.Err)
		case coordinator.EventWorkerDead:
			fmt.Fprintf(os.Stderr, "%-30s worker %s removed from the fleet (%v)\n", name, e.Worker, e.Err)
		case coordinator.EventWorkerJoin:
			fmt.Fprintf(os.Stderr, "%-30s worker %s joined the fleet\n", name, e.Worker)
		case coordinator.EventWorkerLeft:
			fmt.Fprintf(os.Stderr, "%-30s worker %s left the fleet\n", name, e.Worker)
		}
	}, tally
}

// wireTally sums the fleet's wire traffic across one job's dispatches.
type wireTally struct {
	sent, received int64
	results        int
	banked         int
}

func (t *wireTally) add(w coordinator.WireStats) {
	t.sent += w.Sent
	t.received += w.Received
	t.results++
}

// summary renders the job's wire line, e.g.
// "wire: 12 results, 18.3 KB sent, 9.1 KB received, 4 shards banked".
func (t *wireTally) summary(name string) {
	if t.results == 0 && t.banked == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%-30s wire: %d results, %.1f KB sent, %.1f KB received, %d shards banked\n",
		name, t.results, float64(t.sent)/1024, float64(t.received)/1024, t.banked)
}

// runScenariosDistributed executes a JSON scenario config like
// runScenarios, but fans every entry out over the fleet — fixed jobs
// as one sharded round, precision-targeted ones as SE-driven extension
// rounds — and renders the merged (bit-identical) reports. The fleet
// may be elastic (a registry): workers joining mid-campaign are
// admitted, evicted ones stop receiving work.
func runScenariosDistributed(ctx context.Context, path, outDir, repFile string, prec *scenario.Precision, fleet coordinator.Fleet) error {
	fmt.Fprintf(os.Stderr, "experiments: distributing over %d workers\n", len(fleet.Members()))
	return runScenarioEntries(path, outDir, repFile, prec,
		func(sp scenario.Spec, name string) (*report.Report, error) {
			progress, tally := fleetProgress(name)
			rep, err := coordinator.RunFleet(ctx, scenario.Job{Spec: sp}, fleet,
				coordinator.Options{Progress: progress})
			tally.summary(name)
			return rep, err
		})
}

// fleetResumeOne adapts coordinator.Resume to resumeScenarios'
// per-entry shape: the coordinator validates the checkpoint against
// the job, fans only the missing run range out over the fleet, and
// merges to the bit-identical whole.
func fleetResumeOne(ctx context.Context, fleet coordinator.Fleet) func(scenario.Job, *report.Report, string) (*report.Report, error) {
	return func(job scenario.Job, from *report.Report, name string) (*report.Report, error) {
		progress, tally := fleetProgress(name)
		rep, err := coordinator.Resume(ctx, job, from, fleet, coordinator.Options{Progress: progress})
		tally.summary(name)
		return rep, err
	}
}
