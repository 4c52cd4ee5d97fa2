package coordinator

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
)

// TestMain doubles this test binary as a worker process: with
// CHAFFMEC_TEST_WORKER=1 it runs the exact RunWorker/exit-code protocol
// cmd/experiments -worker speaks, so the Subprocess transport is tested
// hermetically against a real child process.
func TestMain(m *testing.M) {
	if os.Getenv("CHAFFMEC_TEST_WORKER") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := RunWorker(ctx, os.Stdin, os.Stdout)
		stop()
		code := 0
		switch {
		case errors.Is(err, ErrBadJob):
			code = ExitBadJob
		case errors.Is(err, ErrPartial):
			code = ExitPartial
		case err != nil:
			code = 1
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// testWorkerFleet builds n subprocess workers re-exec'ing this binary,
// optionally with extra per-worker env on worker 0.
func testWorkerFleet(n int, worker0Env ...string) []Transport {
	out := make([]Transport, 0, n)
	for i := 0; i < n; i++ {
		t := &Subprocess{
			Label: fmt.Sprintf("sub-%d", i),
			Argv:  []string{os.Args[0]},
			Env:   []string{"CHAFFMEC_TEST_WORKER=1"},
		}
		if i == 0 {
			t.Env = append(t.Env, worker0Env...)
		}
		out = append(out, t)
	}
	return out
}

func TestSubprocessFanOutBitIdentical(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(testWorkerFleet(3)...),
		Options{Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("subprocess fan-out differs from single-process report")
	}
	checkWireEvents(t, log)
}

func TestSubprocessCrashInjection(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	for _, mode := range []string{"exit", "partial"} {
		log := &eventLog{}
		got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(testWorkerFleet(3, EnvCrash+"="+mode)...), Options{
			Progress: log.add,
		})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if norm(t, got) != norm(t, want) {
			t.Fatalf("mode %s: merge after injected crash differs from single-process report", mode)
		}
		if mode == "exit" && log.count(EventFailure)+log.count(EventWorkerDead) == 0 {
			t.Fatal("mode exit: crash left no failure events")
		}
		if mode == "partial" && log.count(EventPartial) == 0 {
			t.Fatal("mode partial: no partial banked")
		}
	}
}

func TestSubprocessBadJobExitCode(t *testing.T) {
	// A worker process handed garbage must exit with the named code, so
	// operators (and the coordinator's logs) can tell "your job is
	// malformed" from "the worker crashed".
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHAFFMEC_TEST_WORKER=1")
	cmd.Stdin = strings.NewReader("{nope")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var xe *exec.ExitError
	if !errors.As(err, &xe) || xe.ExitCode() != ExitBadJob {
		t.Fatalf("exit = %v, want code %d", err, ExitBadJob)
	}
	if !strings.Contains(stderr.String(), "malformed worker job") {
		t.Fatalf("stderr %q does not carry the named error", stderr.String())
	}
}

func TestRunWorkerNamedErrors(t *testing.T) {
	for name, stdin := range map[string]string{
		"garbage":       "{nope",
		"missing kind":  `{"spec":{}}`,
		"unknown kind":  `{"spec":{"kind":"no-such-kind"}}`,
		"invalid shard": `{"spec":{"kind":"single"},"shard":{"index":5,"count":2}}`,
		"unknown strat": `{"spec":{"kind":"single","strategy":"NOPE"}}`,
		"bad precision": `{"spec":{"kind":"single","precision":{"target_se":0.1,"series":"a","scalar":"b"}}}`,
	} {
		var out bytes.Buffer
		err := RunWorker(context.Background(), strings.NewReader(stdin), &out)
		if !errors.Is(err, ErrBadJob) {
			t.Fatalf("%s: err = %v, want ErrBadJob", name, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: malformed job wrote output %q", name, out.String())
		}
	}
}

func TestRunWorkerMatchesDirectRun(t *testing.T) {
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(5, 45)}
	want, err := scenario.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunWorker(context.Background(), bytes.NewReader(blob), &out); err != nil {
		t.Fatal(err)
	}
	got, err := decodeReportStream(&out)
	if err != nil {
		t.Fatal(err)
	}
	// The worker executes the shard in chunks; position-aware reducers
	// make the chunked result bit-identical to the one-shot shard.
	if norm(t, got) != norm(t, want) {
		t.Fatal("worker chunked shard differs from direct shard run")
	}
}

func TestRunWorkerTerminationWritesResumablePartial(t *testing.T) {
	t.Setenv(EnvCrash, "partial")
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 60)}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = RunWorker(context.Background(), bytes.NewReader(blob), &out)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	partial, err := decodeReportStream(&out)
	if err != nil {
		t.Fatal(err)
	}
	if partial.RunStart != 0 || partial.RunCount <= 0 || partial.RunCount >= 60 {
		t.Fatalf("partial covers [%d,%d), want a proper prefix of [0,60)",
			partial.RunStart, partial.RunStart+partial.RunCount)
	}
	// Resumable: executing exactly the remainder and extending yields
	// the bit-identical whole-shard report.
	t.Setenv(EnvCrash, "")
	rest, err := scenario.RunJob(context.Background(),
		scenario.Job{Spec: job.Spec, Shard: engine.Span(partial.RunCount, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.Extend(rest); err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, partial) != norm(t, want) {
		t.Fatal("resumed partial differs from uninterrupted shard")
	}
}

func TestHTTPFanOutBitIdentical(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	srv2 := httptest.NewServer(Handler(context.Background()))
	defer srv2.Close()
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(HTTPFleet(srv.URL, srv2.URL)...),
		Options{Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("HTTP fan-out differs from single-process report")
	}
	checkWireEvents(t, log)
}

func TestHTTPWorkerDownThenFleetSurvives(t *testing.T) {
	// The transient-error retry would have the dead worker spend most of
	// this test in backoff; zero it so its dispatches still fail fast
	// enough to cross WorkerFailLimit before the round completes (the
	// retry itself is covered by TestHTTPRetriesTransientErrors).
	defer func(d time.Duration) { httpBackoff = d }(httpBackoff)
	httpBackoff = 0

	sp := testSpec()
	want := single(t, sp)
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first dispatch
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(HTTPFleet(srv.URL, dead.URL)...), Options{
		Progress: log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge with a dead HTTP worker differs from single-process report")
	}
	if log.count(EventWorkerDead) != 1 {
		t.Fatalf("worker-dead events = %d, want 1", log.count(EventWorkerDead))
	}
}

// TestHTTPWorkerWithoutV1Fails: a worker that does not serve /v1/run
// fails the dispatch with its HTTP status; the transport posts nowhere
// else.
func TestHTTPWorkerWithoutV1Fails(t *testing.T) {
	var hits, v1Hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		if r.URL.Path == "/v1/run" {
			atomic.AddInt32(&v1Hits, 1)
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	tr := &HTTP{URL: srv.URL}
	_, err := tr.Run(context.Background(), scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 16)})
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("err = %v, want an HTTP 404 dispatch failure", err)
	}
	if n, v1 := atomic.LoadInt32(&hits), atomic.LoadInt32(&v1Hits); n != 1 || v1 != 1 {
		t.Fatalf("worker saw %d requests (%d to /v1/run), want exactly one, to /v1/run", n, v1)
	}
}

// TestHandlerV1Contract pins the worker API's one wire: POST /v1/run
// answers the direct shard run as a count-1 CMR1 envelope behind a gzip
// frame, labeled mimeReports, with no Deprecation header; GET
// /v1/healthz answers the capability envelope.
func TestHandlerV1Contract(t *testing.T) {
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 16)}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/run", mimeJSON, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != mimeReports {
		t.Fatalf("/v1/run: Content-Type = %q, want %q", got, mimeReports)
	}
	if got := resp.Header.Get("Deprecation"); got != "" {
		t.Fatalf("/v1/run: Deprecation header = %q, want none", got)
	}
	checkWireBody(t, "/v1/run", body, want)

	v1health, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer v1health.Body.Close()
	var caps Capabilities
	if err := json.NewDecoder(v1health.Body).Decode(&caps); err != nil {
		t.Fatal(err)
	}
	if caps.Stream == "" || caps.GOARCH == "" {
		t.Fatalf("/v1/healthz envelope = %+v, want stream and goarch", caps)
	}
}

// checkWireBody asserts body is the one worker wire format — a
// gzip-framed CMR1 envelope holding exactly one report — and that the
// report equals want.
func checkWireBody(t *testing.T, name string, body []byte, want *report.Report) {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: body is not gzip-framed: %v", name, err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("CMR1")) {
		t.Fatalf("%s: gzip frame holds %q..., want a CMR1 envelope", name, raw[:min(len(raw), 8)])
	}
	reps, err := report.DecodeReports(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("%s: envelope holds %d reports, want 1", name, len(reps))
	}
	if norm(t, reps[0]) != norm(t, want) {
		t.Fatalf("%s: response differs from the direct shard run", name)
	}
}

// postOversized POSTs a JSON document one string field pushes past
// maxBodyBytes (format holds one %s for that string) and returns the
// status and body of the answer.
func postOversized(t *testing.T, url, format string) (int, string) {
	t.Helper()
	body := fmt.Sprintf(format, strings.Repeat("a", maxBodyBytes))
	resp, err := http.Post(url, mimeJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(msg)
}

// TestHandlerRejectsOversizedJob: a /v1/run body past maxBodyBytes is
// refused with 413 naming ErrBadJob, before any shard runs.
func TestHandlerRejectsOversizedJob(t *testing.T) {
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	status, msg := postOversized(t, srv.URL+"/v1/run", `{"spec":{"kind":"single","name":"%s"}}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job: HTTP %d, want 413", status)
	}
	if !strings.Contains(msg, ErrBadJob.Error()) {
		t.Fatalf("oversized job answer %q does not name ErrBadJob", msg)
	}
}

// TestHTTPHandlerRejectsBadJob: /v1/run refuses every job the -worker
// path refuses, with 400 naming ErrBadJob and before any shard runs —
// not only undecodable bodies but unknown kinds, out-of-range shards
// and unknown strategies.
func TestHTTPHandlerRejectsBadJob(t *testing.T) {
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	for name, body := range map[string]string{
		"garbage":          "{nope",
		"unknown kind":     `{"spec":{"kind":"nope","strategy":"MO","runs":8}}`,
		"invalid shard":    `{"spec":{"kind":"single","strategy":"MO","runs":8},"shard":{"index":3,"count":2}}`,
		"unknown strategy": `{"spec":{"kind":"single","strategy":"NOPE","runs":8}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/run", mimeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", name, resp.StatusCode, msg)
		}
		if !strings.Contains(string(msg), ErrBadJob.Error()) {
			t.Fatalf("%s: answer %q does not name ErrBadJob", name, msg)
		}
	}
	health, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", health.StatusCode)
	}
}
