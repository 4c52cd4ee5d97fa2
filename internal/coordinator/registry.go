package coordinator

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"chaffmec/internal/rng"
)

// Capabilities is the JSON envelope a persistent worker announces on
// POST /v1/register and echoes on GET /v1/healthz: who it is, where to
// dispatch, how much it can take, and which wire contract it speaks.
// The registry rejects a stream-version mismatch at registration —
// mixed rng streams would merge garbage — and everything else is
// advisory metadata for scheduling and operators.
type Capabilities struct {
	// Name labels the worker in events and logs (default: Addr).
	Name string `json:"name,omitempty"`
	// Addr is the worker's dispatchable base URL (e.g. http://host:8080).
	Addr string `json:"addr"`
	// Weight is the worker's relative capacity (default 1); it drives
	// the coordinator's weighted shard shares.
	Weight float64 `json:"weight,omitempty"`
	// GOARCH is the worker's architecture (informational; results are
	// bit-identical across architectures by construction).
	GOARCH string `json:"goarch,omitempty"`
	// Stream is the rng stream version the worker draws runs from. It
	// must match the coordinator's or registration is refused.
	Stream string `json:"stream,omitempty"`
	// TraceLabBuilds counts the TraceLabs this worker built from
	// scratch since process start — the warm-state probe the fleet
	// bench asserts with (healthz only; ignored on register).
	TraceLabBuilds int `json:"trace_lab_builds,omitempty"`
}

// RegistryOptions tunes a worker registry.
type RegistryOptions struct {
	// Heartbeat is the interval workers are told to beat at (default
	// 2s). The registry echoes it in the register response, so the
	// fleet's cadence is centrally controlled.
	Heartbeat time.Duration
	// TTL evicts a worker whose last heartbeat is older than this
	// (default 3×Heartbeat). Eviction mid-campaign is safe: the
	// dispatcher re-plans and shard results are bit-deterministic.
	TTL time.Duration
	// Dial turns an accepted registration into a dispatch Transport.
	// Nil defaults to an HTTP transport on the announced Addr. Tests
	// inject fakes here.
	Dial func(Capabilities) (Transport, error)
}

func (o RegistryOptions) normalized() RegistryOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 2 * time.Second
	}
	if o.TTL <= 0 {
		o.TTL = 3 * o.Heartbeat
	}
	if o.Dial == nil {
		o.Dial = func(c Capabilities) (Transport, error) {
			return &HTTP{Label: c.Name, URL: c.Addr}, nil
		}
	}
	return o
}

// regMember is one registered worker: its fleet membership plus the
// liveness state the eviction loop reads.
type regMember struct {
	member   Member
	caps     Capabilities
	lastBeat time.Time
}

// Registry is the elastic half of the Fleet interface: persistent
// workers dial in (POST /v1/register with their Capabilities), renew
// with POST /v1/heartbeat, and are evicted when their heartbeats stop.
// Membership changes are coalesced onto the Updates channel, so a
// coordinator round admits joiners and drops the evicted mid-campaign.
// Static members (AddStatic) ride alongside the registered ones, which
// is how one fleet mixes a fixed local worker with elastic remote ones.
type Registry struct {
	opts RegistryOptions

	mu      sync.Mutex
	byID    map[string]*regMember
	order   []string // registration order, stable for Members()
	static  []Member
	seq     int
	updates chan struct{}
	done    chan struct{}
	closed  bool
}

// NewRegistry builds a registry and starts its eviction loop; Close
// stops it.
func NewRegistry(opts RegistryOptions) *Registry {
	r := &Registry{
		opts:    opts.normalized(),
		byID:    map[string]*regMember{},
		updates: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go r.evictLoop()
	return r
}

// Close stops the eviction loop. Registered members remain listed (a
// closed registry just stops evicting).
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		close(r.done)
	}
}

// Members implements Fleet: static members first, then the registered
// ones in registration order.
func (r *Registry) Members() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Member, 0, len(r.static)+len(r.order))
	out = append(out, r.static...)
	for _, id := range r.order {
		out = append(out, r.byID[id].member)
	}
	return out
}

// Updates implements Fleet: one coalesced notification per membership
// change (register, eviction, AddStatic).
func (r *Registry) Updates() <-chan struct{} { return r.updates }

// Snapshot returns the registered workers' capability envelopes in
// registration order (static members have none).
func (r *Registry) Snapshot() []Capabilities {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Capabilities, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id].caps)
	}
	return out
}

// AddStatic appends fixed weight-1 members that never register or
// heartbeat — the bridge from explicit -connect/-workers style lists
// into an elastic fleet.
func (r *Registry) AddStatic(ts ...Transport) {
	r.AddMembers(StaticOf(ts...).Members()...)
}

// AddMembers appends fixed members — weights included — that never
// register or heartbeat; Static normalizes IDs and weights.
func (r *Registry) AddMembers(members ...Member) {
	normalized := Static(members...).Members()
	r.mu.Lock()
	r.static = append(r.static, normalized...)
	r.mu.Unlock()
	r.notify()
}

// WaitFor blocks until the fleet has at least n members (or ctx ends).
func (r *Registry) WaitFor(ctx context.Context, n int) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if len(r.Members()) >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("coordinator: waiting for %d registered workers (have %d): %w", n, len(r.Members()), ctx.Err())
		case <-r.updates:
		case <-tick.C:
		}
	}
}

func (r *Registry) notify() {
	select {
	case r.updates <- struct{}{}:
	default: // a notification is already pending; membership reads coalesce
	}
}

// evictLoop drops workers whose heartbeats stopped. It polls at a
// fraction of the TTL so eviction lag is bounded well under one TTL.
func (r *Registry) evictLoop() {
	period := r.opts.TTL / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case now := <-tick.C:
			if r.evictStale(now) {
				r.notify()
			}
		}
	}
}

func (r *Registry) evictStale(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted := false
	kept := r.order[:0]
	for _, id := range r.order {
		if now.Sub(r.byID[id].lastBeat) > r.opts.TTL {
			delete(r.byID, id)
			evicted = true
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
	return evicted
}

// registerResponse is the /v1/register reply: the lease the worker
// heartbeats under.
type registerResponse struct {
	ID          string `json:"id"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// register admits one worker, replacing any earlier registration of the
// same Addr (a restarted worker re-registers; two live entries for one
// address would double-dispatch to it).
func (r *Registry) register(caps Capabilities) (registerResponse, error) {
	if caps.Addr == "" {
		return registerResponse{}, fmt.Errorf("registration announces no addr")
	}
	if caps.Stream != "" && caps.Stream != rng.StreamVersion {
		return registerResponse{}, fmt.Errorf("worker stream %q does not match coordinator stream %q; mixed streams cannot merge", caps.Stream, rng.StreamVersion)
	}
	if caps.Name == "" {
		caps.Name = caps.Addr
	}
	t, err := r.opts.Dial(caps)
	if err != nil {
		return registerResponse{}, fmt.Errorf("dialing %s: %w", caps.Addr, err)
	}
	r.mu.Lock()
	for _, id := range r.order {
		if r.byID[id].caps.Addr == caps.Addr {
			delete(r.byID, id)
			for i, k := range r.order {
				if k == id {
					r.order = append(r.order[:i:i], r.order[i+1:]...)
					break
				}
			}
			break
		}
	}
	r.seq++
	id := fmt.Sprintf("%s#%d", caps.Name, r.seq)
	r.byID[id] = &regMember{
		member:   Member{ID: id, Weight: caps.Weight, Transport: t},
		caps:     caps,
		lastBeat: time.Now(),
	}
	r.order = append(r.order, id)
	hb := r.opts.Heartbeat
	r.mu.Unlock()
	r.notify()
	return registerResponse{ID: id, HeartbeatMS: hb.Milliseconds()}, nil
}

// heartbeat renews one lease; false means the ID is unknown (evicted or
// never registered) and the worker must re-register.
func (r *Registry) heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byID[id]
	if ok {
		m.lastBeat = time.Now()
	}
	return ok
}

// Handler serves the registry's side of the versioned worker API:
//
//	POST /v1/register   Capabilities JSON in, {id, heartbeat_ms} out
//	                    (409 on an rng stream-version mismatch)
//	POST /v1/heartbeat  {"id": ...} in; 404 asks the worker to
//	                    re-register (its lease was evicted)
//
// Mount it wherever the coordinator listens; workers point
// `experiments -worker-daemon` at that base URL.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST Capabilities JSON to /v1/register", http.StatusMethodNotAllowed)
			return
		}
		var caps Capabilities
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&caps); err != nil {
			http.Error(w, fmt.Sprintf("parsing registration: %v", err), bodyStatus(err))
			return
		}
		resp, err := r.register(caps)
		if err != nil {
			status := http.StatusBadRequest
			if caps.Stream != "" && caps.Stream != rng.StreamVersion {
				status = http.StatusConflict
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", mimeJSON)
		json.NewEncoder(w).Encode(resp) //nolint:errcheck // response already committed
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, `POST {"id": ...} to /v1/heartbeat`, http.StatusMethodNotAllowed)
			return
		}
		var beat struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&beat); err != nil {
			http.Error(w, fmt.Sprintf("parsing heartbeat: %v", err), bodyStatus(err))
			return
		}
		if !r.heartbeat(beat.ID) {
			http.Error(w, fmt.Sprintf("unknown worker %q: re-register", beat.ID), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", mimeJSON)
		fmt.Fprintln(w, `{"ok":true}`)
	})
	return mux
}

// ProbeWorker fetches a worker's /v1/healthz capability envelope — how
// the fleet bench reads the warm-state build counter, and a generic
// liveness + capability probe for operators. client nil uses
// http.DefaultClient.
func ProbeWorker(ctx context.Context, client *http.Client, baseURL string) (Capabilities, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, trimURL(baseURL)+"/v1/healthz", nil)
	if err != nil {
		return Capabilities{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Capabilities{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return Capabilities{}, fmt.Errorf("coordinator: %s/v1/healthz: HTTP %d: %s", baseURL, resp.StatusCode, stderrTail(string(body)))
	}
	var caps Capabilities
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		return Capabilities{}, fmt.Errorf("coordinator: parsing %s/v1/healthz: %w", baseURL, err)
	}
	return caps, nil
}
