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

// EnvWire is the report-encoding negotiation channel of the Subprocess
// transport: the parent sets it to a report encoding name ("json",
// "binary", "binary+gzip") and the worker writes its stdout report in
// that format. Unset or unknown values fall back to the original JSON
// contract, so a new worker binary under an old coordinator behaves
// exactly as before.
const EnvWire = "CHAFFMEC_WIRE"

// wireFromEnv resolves EnvWire into the stdout report encoding.
func wireFromEnv() report.Encoding {
	switch enc := report.Encoding(os.Getenv(EnvWire)); enc {
	case report.EncodingBinary, report.EncodingBinaryGzip:
		return enc
	default:
		return report.EncodingJSON
	}
}

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
// of `cmd/experiments -worker`: ONE Job as JSON on in, its Report as
// JSON on out. Malformed input (bad JSON, unknown kind, invalid shard
// or precision block) returns an error wrapping ErrBadJob without
// running anything. A cancellation (SIGTERM) mid-shard writes the
// resumable prefix checkpoint to out and returns an error wrapping
// ErrPartial; the caller maps these to ExitBadJob/ExitPartial.
func RunWorker(ctx context.Context, in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	var job scenario.Job
	if err := dec.Decode(&job); err != nil {
		return fmt.Errorf("%w: parsing stdin: %v", ErrBadJob, err)
	}
	if job.Spec.Kind == "" {
		return fmt.Errorf("%w: spec needs a kind", ErrBadJob)
	}
	if !slices.Contains(scenario.Kinds(), job.Spec.Kind) {
		return fmt.Errorf("%w: unknown kind %q", ErrBadJob, job.Spec.Kind)
	}
	if err := job.Shard.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	if _, err := scenario.NewPlan(job.Spec); err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	enc := wireFromEnv()
	rep, err := runShardChunks(runCtx, job, 0, crashFromEnv(cancel))
	if err != nil {
		if rep != nil && rep.RunCount > 0 {
			if werr := writeReportWire(out, rep, enc); werr != nil {
				return fmt.Errorf("writing partial checkpoint: %w", werr)
			}
			return fmt.Errorf("%w: wrote runs [%d,%d): %v",
				ErrPartial, rep.RunStart, rep.RunStart+rep.RunCount, err)
		}
		return err
	}
	return writeReportWire(out, rep, enc)
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

func writeReportJSON(w io.Writer, rep *report.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// writeReportWire writes one report in the negotiated wire encoding:
// the legacy single-object JSON, or a count-1 binary envelope.
func writeReportWire(w io.Writer, rep *report.Report, enc report.Encoding) error {
	if enc == report.EncodingJSON || enc == "" {
		return writeReportJSON(w, rep)
	}
	return report.WriteEncoded(w, []*report.Report{rep}, enc)
}

// negotiateWire picks the response encoding from a request's Accept
// header; absent or JSON-only keeps the original JSON responses.
func negotiateWire(accept string) report.Encoding {
	switch {
	case strings.Contains(accept, mimeBinaryGzip):
		return report.EncodingBinaryGzip
	case strings.Contains(accept, mimeBinary):
		return report.EncodingBinary
	default:
		return report.EncodingJSON
	}
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
//	POST /v1/run      Job JSON in, Report JSON out (206 + prefix report
//	                  when the worker is terminated mid-shard)
//	GET  /v1/healthz  capability envelope: goarch, rng stream version,
//	                  supported report codecs, warm-state build counter
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
			Codecs:         localCodecs(),
			TraceLabBuilds: scenario.TraceLabBuilds(),
		})
	})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a Job to /v1/run", http.StatusMethodNotAllowed)
			return
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		var job scenario.Job
		if err := dec.Decode(&job); err != nil {
			http.Error(w, fmt.Sprintf("%v: %v", ErrBadJob, err), bodyStatus(err))
			return
		}
		// The shard aborts when either the request is abandoned or the
		// worker process is asked to drain.
		runCtx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(ctx, cancel)
		defer stop()
		enc := negotiateWire(r.Header.Get("Accept"))
		rep, err := RunShard(runCtx, job, 0)
		if err != nil {
			if rep != nil && rep.RunCount > 0 {
				w.Header().Set("Content-Type", encodingMime(enc))
				w.WriteHeader(http.StatusPartialContent)
				writeReportWire(w, rep, enc) //nolint:errcheck // response already committed
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", encodingMime(enc))
		writeReportWire(w, rep, enc) //nolint:errcheck // response already committed
	})
	return mux
}
