package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"

	"chaffmec/internal/chaff"
	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
)

// EnvCrash is the fault-injection knob CI and tests use to prove the
// retry path: a worker process started with CHAFFMEC_WORKER_CRASH=exit
// aborts (exit 1, no output) after executing its first chunk —
// "mid-shard", deterministically. Value "partial" instead simulates a
// SIGTERM: the prefix checkpoint is written and the worker exits with
// ExitPartial. Unset (production) does nothing.
const EnvCrash = "CHAFFMEC_WORKER_CRASH"

// workerChunks splits a worker's shard into about this many chunks of
// [minChunk, maxChunk] runs each, so an interrupted worker has
// completed chunks to checkpoint — maxChunk bounds how much work a
// SIGTERM can lose even on very large shards. Chunk boundaries never
// change results: the accumulators are position-aware dyadic reducers,
// so any contiguous decomposition extends bit-identically.
const (
	workerChunks = 8
	minChunk     = 8
	maxChunk     = 4096
)

// RunShard executes exactly the job's shard in contiguous chunks of
// about chunk runs (0: a default of the shard split into workerChunks
// pieces), extending a partial report after each chunk. On error —
// cancellation (SIGTERM in a worker process) included — the prefix
// report of the COMPLETED chunks is returned alongside the error: a
// resumable checkpoint covering [start, k), exactly PR-style round
// checkpointing applied inside one shard. A whole-range job (no shard)
// is delegated to the scenario layer's own (adaptive, resumable) round
// loop.
func RunShard(ctx context.Context, job scenario.Job, chunk int) (*report.Report, error) {
	return runShardChunks(ctx, job, chunk, nil)
}

// runShardChunks is RunShard with a test hook invoked after each
// completed chunk (the injected-crash seam).
func runShardChunks(ctx context.Context, job scenario.Job, chunk int, afterChunk func(i int)) (*report.Report, error) {
	if err := job.Shard.Validate(); err != nil {
		return nil, err
	}
	if job.Shard.IsWhole() {
		return scenario.RunAdaptive(ctx, job, nil)
	}
	plan, err := scenario.NewPlan(job.Spec)
	if err != nil {
		return nil, err
	}
	start, end := job.Shard.Range(plan.FixedRuns())
	if chunk <= 0 {
		chunk = (end - start + workerChunks - 1) / workerChunks
		if chunk < minChunk {
			chunk = minChunk
		}
		if chunk > maxChunk {
			chunk = maxChunk
		}
	}
	var acc *report.Report
	for i, at := 0, start; at < end; i, at = i+1, at+chunk {
		hi := at + chunk
		if hi > end {
			hi = end
		}
		rep, err := scenario.RunJob(ctx, scenario.Job{Spec: job.Spec, Shard: engine.Span(at, hi)})
		if err != nil {
			return acc, err // acc: the completed-chunk prefix
		}
		if acc == nil {
			acc = rep
		} else if err := acc.Extend(rep); err != nil {
			return acc, err
		}
		if afterChunk != nil {
			afterChunk(i)
		}
	}
	return acc, nil
}

// RunWorker is the worker half of the Subprocess transport — the body
// of `cmd/experiments -worker`: ONE Job as JSON on in, its Report on
// out as the worker wire's one contract (see writeReport). A job
// readJob refuses returns an error wrapping ErrBadJob without running
// anything. A cancellation (SIGTERM) mid-shard writes the resumable
// prefix checkpoint to out and returns an error wrapping ErrPartial;
// the caller maps these to ExitBadJob/ExitPartial.
func RunWorker(ctx context.Context, in io.Reader, out io.Writer) error {
	job, err := readJob(in)
	if err != nil {
		return err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	rep, err := runShardChunks(runCtx, job, 0, crashFromEnv(cancel))
	if err != nil {
		if rep != nil && rep.RunCount > 0 {
			if werr := writeReport(out, rep); werr != nil {
				return fmt.Errorf("writing partial checkpoint: %w", werr)
			}
			return fmt.Errorf("%w: wrote runs [%d,%d): %v",
				ErrPartial, rep.RunStart, rep.RunStart+rep.RunCount, err)
		}
		return err
	}
	return writeReport(out, rep)
}

// readJob decodes one worker Job (unknown fields rejected) and admits
// it: a registered kind, a valid shard selector, a plannable precision
// block and known chaff strategies. Both worker entry points (-worker
// and /v1/run) call it, so a job one refuses the other refuses too;
// every error wraps ErrBadJob, and the decode error too so a caller
// can still tell an overlong body.
func readJob(r io.Reader) (scenario.Job, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var job scenario.Job
	if err := dec.Decode(&job); err != nil {
		return job, fmt.Errorf("%w: parsing job: %w", ErrBadJob, err)
	}
	sp := job.Spec
	if sp.Kind == "" {
		return job, fmt.Errorf("%w: spec needs a kind", ErrBadJob)
	}
	if !slices.Contains(scenario.Kinds(), sp.Kind) {
		return job, fmt.Errorf("%w: unknown kind %q", ErrBadJob, sp.Kind)
	}
	if err := job.Shard.Validate(); err != nil {
		return job, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	if _, err := scenario.NewPlan(sp); err != nil {
		return job, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	names := append([]string{sp.Strategy}, sp.Strategies...)
	for _, m := range sp.Population {
		names = append(names, m.Strategy)
	}
	for _, name := range names {
		// Matched the way chaff.NewByName matches it.
		key := strings.ToUpper(strings.TrimSpace(name))
		if name != "" && !slices.ContainsFunc(chaff.Names(), func(n string) bool { return strings.ToUpper(n) == key }) {
			return job, fmt.Errorf("%w: unknown strategy %q (known: %s)",
				ErrBadJob, name, strings.Join(chaff.Names(), ", "))
		}
	}
	return job, nil
}

// crashFromEnv resolves the EnvCrash fault injection into a chunk
// hook; cancel aborts the worker's shard context the way SIGTERM does.
func crashFromEnv(cancel context.CancelFunc) func(i int) {
	mode := os.Getenv(EnvCrash)
	if mode == "" {
		return nil
	}
	return func(i int) {
		if i != 0 {
			return
		}
		switch mode {
		case "exit":
			fmt.Fprintln(os.Stderr, "worker: injected crash (CHAFFMEC_WORKER_CRASH=exit)")
			os.Exit(1)
		case "partial":
			// Simulated SIGTERM after the first chunk: the shard aborts
			// at the next chunk boundary and RunWorker checkpoints the
			// prefix, exiting with ExitPartial.
			fmt.Fprintln(os.Stderr, "worker: injected termination (CHAFFMEC_WORKER_CRASH=partial)")
			cancel()
		}
	}
}

// writeReport writes one report as the worker wire's one contract: a
// count-1 CMR1 envelope behind a gzip frame (mimeReports over HTTP).
func writeReport(w io.Writer, rep *report.Report) error {
	return report.WriteEncoded(w, []*report.Report{rep}, report.EncodingBinaryGzip)
}

// maxBodyBytes bounds the request body of every handler that reads
// outside bytes (/v1/run, /v1/register, /v1/heartbeat). A Job or a
// Capabilities envelope is well under a kilobyte; the bound only stops
// a runaway or hostile client from streaming an unbounded body into the
// JSON decoder.
const maxBodyBytes = 1 << 20

// bodyStatus maps a request-body decode error to its HTTP status: 413
// when the body overran maxBodyBytes, else 400.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Handler serves the worker HTTP API of `experiments -serve` and
// `-worker-daemon`:
//
//	POST /v1/run      Job JSON in, the Report out as a count-1
//	                  binary+gzip CMR1 envelope (206 + prefix report
//	                  when the worker is terminated mid-shard; 400
//	                  naming ErrBadJob for a job readJob refuses)
//	GET  /v1/healthz  capability envelope: goarch, rng stream version,
//	                  warm-state build counter
//
// ctx is the worker process's lifetime (SIGTERM cancels it): in-flight
// shards abort at the next chunk boundary and respond with their
// checkpointed prefix, so a drained worker hands its work back instead
// of losing it.
func Handler(ctx context.Context) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", mimeJSON)
		json.NewEncoder(w).Encode(Capabilities{ //nolint:errcheck // response already committed
			GOARCH:         runtime.GOARCH,
			Stream:         rng.StreamVersion,
			TraceLabBuilds: scenario.TraceLabBuilds(),
		})
	})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a Job to /v1/run", http.StatusMethodNotAllowed)
			return
		}
		job, err := readJob(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			http.Error(w, err.Error(), bodyStatus(err))
			return
		}
		// The shard aborts when either the request is abandoned or the
		// worker process is asked to drain.
		runCtx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(ctx, cancel)
		defer stop()
		rep, err := RunShard(runCtx, job, 0)
		if err != nil && (rep == nil || rep.RunCount == 0) {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", mimeReports)
		if err != nil {
			w.WriteHeader(http.StatusPartialContent)
		}
		writeReport(w, rep) //nolint:errcheck // response already committed
	})
	return mux
}
