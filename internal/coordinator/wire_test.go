package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// flakyTripper fails the first `fails` round trips with err, then
// delegates to the real transport — the connection-refused worker that
// comes back.
type flakyTripper struct {
	fails int32
	err   error
	next  http.RoundTripper
	calls int32
}

func (f *flakyTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	atomic.AddInt32(&f.calls, 1)
	if atomic.AddInt32(&f.fails, -1) >= 0 {
		return nil, f.err
	}
	return f.next.RoundTrip(req)
}

func TestHTTPRetriesTransientErrors(t *testing.T) {
	defer func(d time.Duration) { httpBackoff = d }(httpBackoff)
	httpBackoff = 0

	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	job := scenario.Job{Spec: testSpec(), Shard: scenario.Job{}.Shard}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly httpRetries dial failures: the dispatch still succeeds, and
	// every attempt's job bytes are booked.
	tripper := &flakyTripper{fails: httpRetries, err: syscall.ECONNREFUSED, next: http.DefaultTransport}
	tr := &HTTP{URL: srv.URL, Client: &http.Client{Transport: tripper}}
	rep, err := tr.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run after transient failures: %v", err)
	}
	if rep == nil || rep.RunCount == 0 {
		t.Fatal("no report after retried dispatch")
	}
	if got := atomic.LoadInt32(&tripper.calls); got != httpRetries+1 {
		t.Fatalf("round trips = %d, want %d", got, httpRetries+1)
	}
	if want := int64(httpRetries+1) * int64(len(blob)); tr.LastWire().Sent != want {
		t.Fatalf("wire sent = %d, want %d (every attempt booked)", tr.LastWire().Sent, want)
	}

	// One failure past the retry budget: the error surfaces.
	tripper = &flakyTripper{fails: httpRetries + 1, err: syscall.ECONNRESET, next: http.DefaultTransport}
	tr = &HTTP{URL: srv.URL, Client: &http.Client{Transport: tripper}}
	if _, err := tr.Run(context.Background(), job); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("err = %v, want ECONNRESET after retries exhausted", err)
	}
	if got := atomic.LoadInt32(&tripper.calls); got != httpRetries+1 {
		t.Fatalf("round trips = %d, want %d", got, httpRetries+1)
	}

	// Non-transient errors are NOT retried: one attempt, straight out.
	boom := errors.New("tls: handshake failure")
	tripper = &flakyTripper{fails: 99, err: boom, next: http.DefaultTransport}
	tr = &HTTP{URL: srv.URL, Client: &http.Client{Transport: tripper}}
	if _, err := tr.Run(context.Background(), job); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the handshake failure", err)
	}
	if got := atomic.LoadInt32(&tripper.calls); got != 1 {
		t.Fatalf("round trips = %d, want 1 (no retry on non-transient errors)", got)
	}
}

// checkWireEvents asserts a fan-out over a real wire booked non-zero
// bytes both ways on every result event.
func checkWireEvents(t *testing.T, log *eventLog) {
	t.Helper()
	log.mu.Lock()
	defer log.mu.Unlock()
	results := 0
	for _, e := range log.events {
		if e.Kind != EventResult {
			continue
		}
		results++
		if e.Wire.Sent <= 0 || e.Wire.Received <= 0 {
			t.Fatalf("result event wire = %+v, want non-zero bytes both ways", e.Wire)
		}
	}
	if results == 0 {
		t.Fatal("no result events observed")
	}
}

// TestHTTPWireNegotiation: /v1/run negotiates nothing. A caller asking
// for the JSON or plain-binary formats the wire once offered still gets
// the one gzip-framed CMR1 envelope, and a fan-out over the HTTP
// transport stays bit-identical with wire bytes booked on every result.
func TestHTTPWireNegotiation(t *testing.T) {
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
	for _, accept := range []string{mimeJSON, "application/x-chaffmec-reports", mimeReports} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/run", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", mimeJSON)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %s: HTTP %d", accept, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != mimeReports {
			t.Fatalf("Accept %s: Content-Type = %q, want %q", accept, got, mimeReports)
		}
		checkWireBody(t, "Accept "+accept, body, want)
	}

	sp := testSpec()
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(&HTTP{URL: srv.URL}), Options{Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, single(t, sp)) {
		t.Fatal("HTTP fleet report differs from single-process report")
	}
	checkWireEvents(t, log)
}

// TestSubprocessWireNegotiation is the same property for the -worker
// protocol: a stale CHAFFMEC_WIRE in the worker's environment, the
// variable that once chose its output format, changes nothing on stdout
// or in the merged fleet report.
func TestSubprocessWireNegotiation(t *testing.T) {
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 16)}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []string{"json", "binary", "binary+gzip"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "CHAFFMEC_TEST_WORKER=1", "CHAFFMEC_WIRE="+enc)
		cmd.Stdin = bytes.NewReader(blob)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("CHAFFMEC_WIRE=%s: worker: %v", enc, err)
		}
		checkWireBody(t, "CHAFFMEC_WIRE="+enc, out, want)
	}

	sp := testSpec()
	log := &eventLog{}
	tr := &Subprocess{
		Label: "sub-wire", Argv: []string{os.Args[0]},
		Env: []string{"CHAFFMEC_TEST_WORKER=1", "CHAFFMEC_WIRE=json"},
	}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(tr),
		Options{Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, single(t, sp)) {
		t.Fatal("subprocess fleet report differs from single-process report")
	}
	checkWireEvents(t, log)
}

// TestDecodeReportStreamBoundsDeclaredCounts: a 31-byte worker answer
// declaring one report with one series of T=1 and 2^28 nodes is
// refused without the decoder sizing anything from that count (sized
// from it, the node slice alone is ~16 GiB).
func TestDecodeReportStreamBoundsDeclaredCounts(t *testing.T) {
	blob := "CMR1\x01" + strings.Repeat("\x00", 17) + "\x01\x00\x02\x00\x80\x80\x80\x80\x01"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeReportStream(strings.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated envelope declaring 2^28 nodes accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting it allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestCoordinatorBanksShards proves the report store turns a repeated
// campaign into cache hits: the second run resolves every shard from
// the bank without dispatching, and a corrupted artifact silently falls
// back to a live dispatch.
func TestCoordinatorBanksShards(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	want := single(t, sp)
	fleet := StaticOf(InProcessFleet(2)...)
	opts := func(log *eventLog) Options {
		return Options{Store: st, Progress: log.add}
	}

	cold := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, fleet, opts(cold))
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("cold banked run differs from single-process report")
	}
	if cold.count(EventBanked) != 0 {
		t.Fatalf("cold run hit the bank %d times", cold.count(EventBanked))
	}
	shards := cold.count(EventResult)
	if shards == 0 {
		t.Fatal("cold run resolved no shards")
	}

	// Warm: every shard comes from the bank, no dispatch at all.
	warm := &eventLog{}
	got, err = RunFleet(context.Background(), scenario.Job{Spec: sp}, fleet, opts(warm))
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("banked run differs from single-process report")
	}
	if warm.count(EventBanked) != shards {
		t.Fatalf("banked shards = %d, want %d", warm.count(EventBanked), shards)
	}
	if n := warm.count(EventDispatch); n != 0 {
		t.Fatalf("warm run dispatched %d shards, want 0", n)
	}

	// Corrupt one banked SHARD artifact on disk (the store also holds
	// the campaign checkpoint under its own kind): that shard (and only
	// that shard) dispatches again, and the result still merges
	// bit-identical.
	corrupted := false
	err = filepath.WalkDir(filepath.Join(st.Root(), "report"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || corrupted {
			return err
		}
		corrupted = true
		return os.WriteFile(path, []byte("not a report envelope"), 0o644)
	})
	if err != nil || !corrupted {
		t.Fatalf("corrupting an artifact: err=%v corrupted=%v", err, corrupted)
	}
	after := &eventLog{}
	got, err = RunFleet(context.Background(), scenario.Job{Spec: sp}, fleet, opts(after))
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("run after artifact corruption differs from single-process report")
	}
	if after.count(EventBanked) != shards-1 {
		t.Fatalf("banked shards = %d, want %d (one evicted)", after.count(EventBanked), shards-1)
	}
	if after.count(EventResult) != 1 {
		t.Fatalf("re-dispatched shards = %d, want exactly the corrupted one", after.count(EventResult))
	}
}
