package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"chaffmec/internal/coordinator"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// fleet is the fleet workload's loopback deployment: fleetWorkers HTTP
// workers serving coordinator.Handler in this process, dispatched to by
// coordinator.RunFleet over real TCP connections.
type fleet struct {
	fleet   coordinator.Fleet
	opts    coordinator.Options
	servers []*http.Server
	conns   *http.Transport
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startFleet listens on loopback ports and serves one worker on each.
// slow delays every dispatch (the seeded slowdown); ft, when non-nil,
// wraps the transports and handlers for tracing.
func startFleet(ctx context.Context, st *store.Store, slow time.Duration, ft *fleetTracer) (*fleet, error) {
	wctx, cancel := context.WithCancel(ctx)
	f := &fleet{
		cancel: cancel,
		conns:  &http.Transport{MaxIdleConnsPerHost: 8},
	}
	var rt http.RoundTripper = f.conns
	if ft != nil {
		rt = ft.roundTripper(rt)
	}
	client := &http.Client{Transport: rt}
	var ts []coordinator.Transport
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		var h http.Handler = coordinator.Handler(wctx)
		if ft != nil {
			h = ft.handler(h)
		}
		srv := &http.Server{Handler: h}
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
		}()
		var t coordinator.Transport = &coordinator.HTTP{
			Label:  fmt.Sprintf("w%d", i),
			URL:    "http://" + ln.Addr().String(),
			Client: client,
		}
		if slow > 0 {
			t = &slowTransport{Transport: t, delay: slow}
		}
		if ft != nil {
			t = ft.transport(t)
		}
		ts = append(ts, t)
	}
	f.fleet = coordinator.StaticOf(ts...)
	f.opts = coordinator.Options{Store: st}
	if ft != nil {
		f.opts.Progress = ft.event
	}
	return f, nil
}

// close shuts the workers down and waits for their serve loops.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		srv.Shutdown(ctx) //nolint:errcheck // best effort; Serve returns either way
	}
	f.cancel()
	f.conns.CloseIdleConnections()
	f.wg.Wait()
}

// slowTransport is the seeded slowdown: a fixed delay before every
// dispatch.
type slowTransport struct {
	coordinator.Transport
	delay time.Duration
}

func (s *slowTransport) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Transport.Run(ctx, job)
}

func (s *slowTransport) LastWire() coordinator.WireStats { return lastWire(s.Transport) }

// lastWire forwards the wire cost of a wrapped transport, so wrapping
// keeps the coordinator's per-dispatch wire accounting.
func lastWire(t coordinator.Transport) coordinator.WireStats {
	if wr, ok := t.(coordinator.WireReporter); ok {
		return wr.LastWire()
	}
	return coordinator.WireStats{}
}
