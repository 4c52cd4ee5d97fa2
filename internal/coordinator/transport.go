package coordinator

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
)

// Transport hands one shard Job to a worker and returns its Report. The
// three implementations cover the deployment ladder: InProcess (tests
// and single-binary fleets), Subprocess (one `experiments -worker` exec
// per dispatch) and HTTP (a long-lived `experiments -serve` worker on
// this or another host).
//
// A Transport must honor ctx: the coordinator cancels dispatches whose
// shard was resolved by another worker (straggler replacement) and
// expects Run to return promptly. Run may return a non-nil PREFIX
// report together with an error wrapping ErrPartial when the worker
// died mid-shard but checkpointed the chunks it completed — the
// coordinator banks the prefix and re-dispatches only the remainder.
type Transport interface {
	// Name labels the worker in events and logs.
	Name() string
	// Run executes the job's shard and returns its (possibly partial)
	// report.
	Run(ctx context.Context, job scenario.Job) (*report.Report, error)
}

// ErrPartial marks a transport result that covers only a prefix of the
// requested shard: the worker was terminated (or crashed politely)
// after checkpointing some chunks. The accompanying report is valid —
// only incomplete.
var ErrPartial = errors.New("coordinator: worker finished only part of its shard")

// ErrBadJob marks worker input that never was a runnable Job: malformed
// JSON, an unknown scenario kind, an invalid shard selector. A worker
// process exits with ExitBadJob on it.
var ErrBadJob = errors.New("coordinator: malformed worker job")

// Worker process exit codes (cmd/experiments -worker).
const (
	// ExitBadJob is the exit code for ErrBadJob input.
	ExitBadJob = 2
	// ExitPartial is the exit code after a SIGTERM (or injected crash)
	// mid-shard when the resumable partial WAS written to stdout.
	ExitPartial = 3
)

// Report wire content types. The worker Handler negotiates them from
// the request's Accept header; absent (an older coordinator), the
// response stays plain JSON, and since every encoding is
// self-describing a decoder never needs the header to parse — the
// types exist for proxies, logs and humans.
const (
	mimeJSON       = "application/json"
	mimeBinary     = "application/x-chaffmec-reports"
	mimeBinaryGzip = "application/x-chaffmec-reports+gzip"
)

// encodingMime maps a report encoding to its wire content type.
func encodingMime(enc report.Encoding) string {
	switch enc {
	case report.EncodingBinary:
		return mimeBinary
	case report.EncodingBinaryGzip:
		return mimeBinaryGzip
	default:
		return mimeJSON
	}
}

// WireStats is one dispatch's wire cost: encoded bytes each way and the
// report encoding that actually came back (a legacy worker answers a
// binary-accepting coordinator in JSON; the self-describing formats
// make that harmless).
type WireStats struct {
	// Sent counts job bytes written to the worker, summed over retry
	// attempts; Received counts report bytes read back.
	Sent     int64
	Received int64
	// Encoding is the report encoding detected on the response.
	Encoding report.Encoding
}

// WireReporter is implemented by transports that can report the wire
// cost of their most recent Run. The coordinator surfaces it on result
// events; a transport is only ever running one dispatch, so reading
// after Run returns is race-free.
type WireReporter interface {
	LastWire() WireStats
}

// countingReader counts the bytes drawn through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeReportStream reads exactly one report from a worker response in
// any wire format, streaming (no whole-envelope buffering): the legacy
// single-object JSON the original worker contract used, or a count-1
// envelope in any format report.ReadReports detects. It returns the
// detected encoding for wire accounting.
func decodeReportStream(r io.Reader) (*report.Report, report.Encoding, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(1)
	if err != nil {
		return nil, report.EncodingJSON, fmt.Errorf("coordinator: parsing worker report: %w", err)
	}
	enc := report.EncodingJSON
	switch head[0] {
	case '{': // legacy single-object JSON
		var rep report.Report
		if err := json.NewDecoder(br).Decode(&rep); err != nil {
			return nil, enc, fmt.Errorf("coordinator: parsing worker report: %w", err)
		}
		return &rep, enc, nil
	case 0x1f:
		enc = report.EncodingBinaryGzip
	case 'C':
		enc = report.EncodingBinary
	}
	reps, err := report.ReadReports(br)
	if err != nil {
		return nil, enc, fmt.Errorf("coordinator: parsing worker report: %w", err)
	}
	if len(reps) != 1 {
		return nil, enc, fmt.Errorf("coordinator: worker returned %d reports, want 1", len(reps))
	}
	return reps[0], enc, nil
}

// InProcess executes jobs on this process's scenario registry — the
// zero-infrastructure fleet for tests and single-binary runs.
type InProcess struct {
	// Label names the worker (default "inprocess").
	Label string
}

// Name implements Transport.
func (t *InProcess) Name() string {
	if t.Label == "" {
		return "inprocess"
	}
	return t.Label
}

// Run implements Transport.
func (t *InProcess) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	return scenario.RunJob(ctx, job)
}

// InProcessFleet returns n in-process workers.
func InProcessFleet(n int) []Transport {
	out := make([]Transport, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &InProcess{Label: fmt.Sprintf("inprocess-%d", i)})
	}
	return out
}

// Subprocess execs a worker-mode binary once per dispatch: the Job is
// written to the child's stdin as JSON and the Report read back from
// its stdout (see RunWorker for the contract). Exit code ExitPartial
// yields the checkpointed prefix report alongside ErrPartial. The
// report encoding is negotiated through the child's environment
// (EnvWire) and decoded as a stream off the stdout pipe; a legacy
// worker binary ignores the variable and answers in JSON, which the
// auto-detecting decoder handles the same way.
type Subprocess struct {
	// Label names the worker (default "subprocess").
	Label string
	// Argv is the worker command line; empty defaults to re-executing
	// this binary with the single argument -worker.
	Argv []string
	// Env entries are appended to the child's environment. CI's fault
	// injection (EnvCrash) rides here.
	Env []string
	// Encoding is the report encoding requested from the worker
	// (default binary+gzip).
	Encoding report.Encoding

	lastWire WireStats
}

// LastWire implements WireReporter.
func (t *Subprocess) LastWire() WireStats { return t.lastWire }

// Name implements Transport.
func (t *Subprocess) Name() string {
	if t.Label == "" {
		return "subprocess"
	}
	return t.Label
}

// Run implements Transport.
func (t *Subprocess) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	argv := t.Argv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("coordinator: %s: resolving worker binary: %w", t.Name(), err)
		}
		argv = []string{exe, "-worker"}
	}
	blob, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	enc := t.Encoding
	if enc == "" {
		enc = report.EncodingBinaryGzip
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdin = bytes.NewReader(blob)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Env = append(append(os.Environ(), EnvWire+"="+string(enc)), t.Env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("coordinator: %s: %w", t.Name(), err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("coordinator: %s: %v", t.Name(), err)
	}
	// Decode straight off the pipe — the report is never buffered whole.
	cr := &countingReader{r: stdout}
	rep, gotEnc, derr := decodeReportStream(cr)
	io.Copy(io.Discard, cr) //nolint:errcheck // drain so the child never blocks on a full pipe
	runErr := cmd.Wait()
	t.lastWire = WireStats{Sent: int64(len(blob)), Received: cr.n, Encoding: gotEnc}
	if runErr == nil {
		if derr != nil {
			return nil, fmt.Errorf("coordinator: %s: %v", t.Name(), derr)
		}
		return rep, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err() // cancelled dispatch, not a worker fault
	}
	var xe *exec.ExitError
	if errors.As(runErr, &xe) && xe.ExitCode() == ExitPartial && derr == nil {
		return rep, fmt.Errorf("%w: %s: %s", ErrPartial, t.Name(), stderrTail(stderr.String()))
	}
	return nil, fmt.Errorf("coordinator: %s: %v: %s", t.Name(), runErr, stderrTail(stderr.String()))
}

// SubprocessFleet returns n subprocess workers sharing one worker
// command line (empty argv: this binary with -worker).
func SubprocessFleet(n int, argv ...string) []Transport {
	out := make([]Transport, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &Subprocess{Label: fmt.Sprintf("subprocess-%d", i), Argv: argv})
	}
	return out
}

// stderrTail keeps a worker failure's stderr actionable without pasting
// a whole log into one error.
func stderrTail(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return "(no stderr)"
	}
	lines := strings.Split(s, "\n")
	if len(lines) > 3 {
		lines = lines[len(lines)-3:]
	}
	return strings.Join(lines, " | ")
}

// HTTP dispatches to a long-lived worker serving the Handler API
// (`experiments -serve` / `-worker-daemon`): POST {URL}/v1/run with the
// Job JSON. Status 200 carries the full report, 206 a checkpointed
// prefix (ErrPartial); any other status fails the dispatch. The Accept
// header asks the worker for the compact binary wire (gzip by
// default); responses stream through the auto-detecting decoder, so a
// JSON answer parses too. Connection-refused and
// connection-reset failures — a worker restarting, a briefly saturated
// accept queue — are retried in place with a short exponential backoff
// before they count as a worker failure.
type HTTP struct {
	// Label names the worker (default: the URL).
	Label string
	// URL is the worker's base URL, e.g. http://host:8080.
	URL string
	// Client overrides http.DefaultClient.
	Client *http.Client
	// Encoding is the report encoding requested via Accept (default
	// binary+gzip).
	Encoding report.Encoding

	lastWire WireStats
}

// Name implements Transport.
func (t *HTTP) Name() string {
	if t.Label == "" {
		return t.URL
	}
	return t.Label
}

// LastWire implements WireReporter.
func (t *HTTP) LastWire() WireStats { return t.lastWire }

// httpRetries and httpBackoff shape the transient-error retry: two
// in-place retries, 50ms then 200ms.
const httpRetries = 2

var httpBackoff = 50 * time.Millisecond

// transientNetErr recognizes the dial-level failures worth retrying in
// place: nobody accepted the connection, so the worker never saw the
// job and a retry cannot duplicate work.
func transientNetErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// Run implements Transport.
func (t *HTTP) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	blob, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	enc := t.Encoding
	if enc == "" {
		enc = report.EncodingBinaryGzip
	}
	t.lastWire = WireStats{}
	backoff := httpBackoff
	for attempt := 0; ; attempt++ {
		rep, err := t.post(ctx, blob, enc)
		if err == nil || attempt >= httpRetries || !transientNetErr(err) || ctx.Err() != nil {
			return rep, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 4
	}
}

// post is one dispatch attempt.
func (t *HTTP) post(ctx context.Context, blob []byte, enc report.Encoding) (*report.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		trimURL(t.URL)+"/v1/run", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", mimeJSON)
	req.Header.Set("Accept", encodingMime(enc)+", "+mimeJSON+";q=0.5")
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	t.lastWire.Sent += int64(len(blob))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("coordinator: %s: %w", t.Name(), err)
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	defer func() {
		io.Copy(io.Discard, cr) //nolint:errcheck // drain for connection reuse
		t.lastWire.Received += cr.n
	}()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		rep, gotEnc, derr := decodeReportStream(cr)
		t.lastWire.Encoding = gotEnc
		if derr != nil {
			return nil, derr
		}
		if resp.StatusCode == http.StatusPartialContent {
			return rep, fmt.Errorf("%w: %s", ErrPartial, t.Name())
		}
		return rep, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(cr, 4096))
		return nil, fmt.Errorf("coordinator: %s: HTTP %d: %s", t.Name(), resp.StatusCode, stderrTail(string(body)))
	}
}

// trimURL strips a base URL's trailing slash so paths join cleanly.
func trimURL(u string) string { return strings.TrimRight(u, "/") }

// HTTPFleet returns one HTTP worker per base URL.
func HTTPFleet(urls ...string) []Transport {
	out := make([]Transport, 0, len(urls))
	for _, u := range urls {
		out = append(out, &HTTP{URL: u})
	}
	return out
}
