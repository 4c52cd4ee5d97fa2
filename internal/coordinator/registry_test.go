package coordinator

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaffmec/internal/rng"
)

// fakeDial is the test registry's Dial seam: every registration maps to
// an in-process fake named after its announced Name.
func fakeDial(c Capabilities) (Transport, error) {
	return &fakeTransport{label: c.Name}, nil
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRegistryLifecycle drives the full register → heartbeat → evict
// arc through a real daemon loop: the worker appears with its announced
// capabilities, stays while heartbeating, and is evicted one TTL after
// its daemon dies.
func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(RegistryOptions{
		Heartbeat: 5 * time.Millisecond,
		TTL:       25 * time.Millisecond,
		Dial:      fakeDial,
	})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunDaemon(ctx, DaemonOptions{ //nolint:errcheck // exits on ctx cancel
			Registry: srv.URL, Advertise: "http://w1", Name: "w1", Weight: 2.5,
		})
	}()
	defer func() { cancel(); wg.Wait() }()

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := reg.WaitFor(waitCtx, 1); err != nil {
		t.Fatal(err)
	}
	m := reg.Members()
	if len(m) != 1 || m[0].Weight != 2.5 || !strings.HasPrefix(m[0].ID, "w1#") {
		t.Fatalf("registered member = %+v", m)
	}
	caps := reg.Snapshot()[0]
	if caps.GOARCH != runtime.GOARCH || caps.Stream != rng.StreamVersion {
		t.Fatalf("announced capabilities = %+v", caps)
	}

	// The lease outlives several TTLs while the daemon heartbeats.
	time.Sleep(4 * 25 * time.Millisecond)
	if len(reg.Members()) != 1 {
		t.Fatal("heartbeating worker was evicted")
	}

	// Kill the daemon: heartbeats stop and the TTL reaps the lease.
	cancel()
	waitUntil(t, 5*time.Second, func() bool { return len(reg.Members()) == 0 },
		"dead worker never evicted")
	select {
	case <-reg.Updates():
	case <-time.After(time.Second):
		t.Fatal("eviction published no membership update")
	}
}

// TestRegistryStreamMismatch pins the compatibility gate: a worker on a
// different rng stream version is refused with 409 (its results could
// not merge), while matching and legacy (silent) streams register fine.
func TestRegistryStreamMismatch(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Dial: fakeDial})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/register", mimeJSON,
		strings.NewReader(`{"addr":"http://x","stream":"bogus/999"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched stream registered: HTTP %d, want 409", resp.StatusCode)
	}
	if len(reg.Members()) != 0 {
		t.Fatal("refused worker appears in the membership")
	}

	ok, err := http.Post(srv.URL+"/v1/register", mimeJSON,
		strings.NewReader(`{"addr":"http://y","stream":"`+rng.StreamVersion+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK || len(reg.Members()) != 1 {
		t.Fatalf("matching stream refused: HTTP %d, members %d", ok.StatusCode, len(reg.Members()))
	}
}

// TestRegistryReRegisterReplaces: a restarted worker re-registering the
// same address replaces its old lease instead of double-dispatching.
func TestRegistryReRegisterReplaces(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Dial: fakeDial})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/v1/register", mimeJSON,
			strings.NewReader(`{"addr":"http://same","name":"same"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %d: HTTP %d", i, resp.StatusCode)
		}
	}
	m := reg.Members()
	if len(m) != 1 {
		t.Fatalf("re-registration left %d members, want 1", len(m))
	}
	if m[0].ID != "same#2" {
		t.Fatalf("replacement kept the old lease: %q", m[0].ID)
	}
}

// TestRegistryHeartbeatUnknownLease: a heartbeat for an evicted (or
// never granted) lease answers 404, the signal to re-register.
func TestRegistryHeartbeatUnknownLease(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Dial: fakeDial})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/heartbeat", mimeJSON, strings.NewReader(`{"id":"ghost#9"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown lease heartbeat: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestRegistryRejectsOversizedBodies: /v1/register and /v1/heartbeat
// bodies past maxBodyBytes are refused with 413 and admit no worker.
func TestRegistryRejectsOversizedBodies(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Dial: fakeDial})
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	for path, format := range map[string]string{
		"/v1/register":  `{"addr":"http://w1","name":"%s"}`,
		"/v1/heartbeat": `{"id":"%s"}`,
	} {
		if status, _ := postOversized(t, srv.URL+path, format); status != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized %s: HTTP %d, want 413", path, status)
		}
	}
	if m := reg.Members(); len(m) != 0 {
		t.Fatalf("oversized registration admitted %d members", len(m))
	}
}

// TestDaemonRetriesRegistration: a registry that is briefly down (500s)
// does not kill the daemon — it backs off and registers when the
// registry recovers.
func TestDaemonRetriesRegistration(t *testing.T) {
	defer func(b, m time.Duration) { daemonBackoff, daemonBackoffMax = b, m }(daemonBackoff, daemonBackoffMax)
	daemonBackoff, daemonBackoffMax = time.Millisecond, 4*time.Millisecond

	reg := NewRegistry(RegistryOptions{Heartbeat: 5 * time.Millisecond, Dial: fakeDial})
	defer reg.Close()
	inner := reg.Handler()
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			http.Error(w, "registry warming up", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunDaemon(ctx, DaemonOptions{Registry: srv.URL, Advertise: "http://w1"}) //nolint:errcheck // exits on ctx cancel
	}()
	defer func() { cancel(); wg.Wait() }()

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := reg.WaitFor(waitCtx, 1); err != nil {
		t.Fatalf("daemon never registered through the flaky registry: %v", err)
	}
	if atomic.LoadInt32(&calls) < 3 {
		t.Fatalf("registry saw %d calls, want the two failures plus a success", calls)
	}
}

// TestDaemonStopsOnPermanentRejection: a 409 (stream mismatch) is not
// retried — the daemon returns the rejection instead of hammering a
// registry that can never accept it.
func TestDaemonStopsOnPermanentRejection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker stream does not match", http.StatusConflict)
	}))
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		done <- RunDaemon(context.Background(), DaemonOptions{Registry: srv.URL, Advertise: "http://x"})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "refused registration") {
			t.Fatalf("err = %v, want the registry rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon kept retrying a permanent rejection")
	}
}

// TestRegistryAddStatic mixes a fixed local fleet into the elastic one.
func TestRegistryAddStatic(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Dial: fakeDial})
	defer reg.Close()
	reg.AddStatic(InProcessFleet(2)...)
	waitCtx, waitCancel := context.WithTimeout(context.Background(), time.Second)
	defer waitCancel()
	if err := reg.WaitFor(waitCtx, 2); err != nil {
		t.Fatal(err)
	}
	m := reg.Members()
	if len(m) != 2 || m[0].Weight != 1 {
		t.Fatalf("static members = %+v", m)
	}
}

// TestProbeWorker reads a live worker's /v1/healthz capability envelope.
func TestProbeWorker(t *testing.T) {
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	caps, err := ProbeWorker(context.Background(), nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if caps.Stream != rng.StreamVersion || caps.GOARCH != runtime.GOARCH {
		t.Fatalf("probed capabilities = %+v", caps)
	}
	if _, err := ProbeWorker(context.Background(), nil, "http://127.0.0.1:1"); err == nil {
		t.Fatal("probe of a dead address succeeded")
	}
}
