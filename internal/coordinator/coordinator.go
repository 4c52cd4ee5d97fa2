// Package coordinator is the distributed fan-out layer of the one
// experiment API: it takes one precision-carrying Job, splits each
// round of its Plan into contiguous engine.Span shards, dispatches them
// to a fleet of workers over pluggable Transports (in-process,
// subprocess, HTTP), banks the Report partials that come back, retries
// failed shards on other workers (excluding the ones that failed them,
// removing workers that keep failing), speculatively re-dispatches
// stragglers to idle workers, and merges — producing a Report provably
// bit-identical to the single-process run of the same Job.
//
// The fleet itself is elastic: the dispatcher consumes the dynamic
// Fleet interface, so membership may change mid-campaign. Persistent
// workers (`experiments -worker-daemon`) register with the Registry,
// announce capacity weights that drive unequal shard shares, heartbeat,
// and are admitted or evicted between dispatches; a static []Transport
// list is just the frozen special case (StaticOf). Resume continues a
// campaign from a banked partial Report in the artifact store the way
// scenario.ResumeJob does single-process.
//
// The exactness argument stacks three established guarantees: every
// run's streams are pure functions of (seed, run index) (internal/rng),
// the aggregates are position-aware dyadic reducers so any contiguous
// decomposition merges bit-for-bit (internal/engine), and the round
// boundaries come from the same scenario.Plan a single process would
// follow — including SE-targeted adaptive extension, where each round's
// schedule depends only on the (deterministic) accumulated report. A
// retried or duplicated shard therefore returns the identical bytes,
// which is what makes retry-until-merged safe rather than approximate —
// and what makes join/leave/crash churn harmless: membership only moves
// WHERE runs execute, never what they compute.
package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/rng"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// Options tunes one fan-out.
type Options struct {
	// ShardsPerWorker oversplits each round into this many shards per
	// alive worker (default 2), so a retry or straggler re-dispatch
	// moves a fraction of the round, not all of it.
	ShardsPerWorker int
	// MaxAttempts caps FAILED dispatch attempts per shard (default 3);
	// a shard exhausting it fails the job.
	MaxAttempts int
	// WorkerFailLimit removes a worker from the fleet after this many
	// failed dispatches (default 2).
	WorkerFailLimit int
	// NoSpeculation disables straggler re-dispatch (an idle worker
	// picking up a shard that is still in flight elsewhere; the first
	// result wins and the loser is cancelled). On by default because
	// shard results are bit-deterministic, so duplicates are exact.
	NoSpeculation bool
	// DispatchTimeout bounds one dispatch attempt; a dispatch
	// exceeding it is cancelled, counted as that worker's failure and
	// retried elsewhere — the escape hatch from a worker that hangs
	// without dying when no idle worker is left to speculate. 0 (the
	// default) disables it: shard durations are workload-dependent and
	// a too-tight bound would fail healthy slow shards.
	DispatchTimeout time.Duration
	// Progress observes coordinator events (dispatches, results,
	// retries, joins, evictions, dead workers, completed rounds). Runs
	// on the driving goroutine.
	Progress func(Event)
	// Store banks full shard Reports in a content-addressed artifact
	// store: before dispatching a shard the coordinator checks the
	// store, and a hit resolves the shard without touching a worker —
	// re-running an interrupted or repeated campaign only computes the
	// missing pieces. The accumulated campaign report is banked there
	// too after every round, which is what Resume(from=nil) picks up.
	// Nil falls back to the process default (store.Default(); usually
	// nil too, disabling banking).
	Store *store.Store
}

func (o Options) normalized() Options {
	if o.ShardsPerWorker <= 0 {
		o.ShardsPerWorker = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.WorkerFailLimit <= 0 {
		o.WorkerFailLimit = 2
	}
	return o
}

// EventKind classifies coordinator progress events.
type EventKind string

// The coordinator's event stream.
const (
	// EventDispatch: a shard was handed to a worker.
	EventDispatch EventKind = "dispatch"
	// EventResult: a worker returned its full shard.
	EventResult EventKind = "result"
	// EventPartial: a worker died mid-shard but checkpointed a prefix;
	// the remainder is requeued.
	EventPartial EventKind = "partial"
	// EventFailure: a dispatch failed; the shard is requeued excluding
	// the worker.
	EventFailure EventKind = "failure"
	// EventWorkerDead: a worker exceeded WorkerFailLimit and left the
	// fleet.
	EventWorkerDead EventKind = "worker-dead"
	// EventWorkerJoin: a fleet member was admitted to the dispatch pool
	// (initial members included — every admission is a join).
	EventWorkerJoin EventKind = "worker-join"
	// EventWorkerLeft: a fleet member disappeared from the membership
	// (heartbeat-timeout eviction, deregistration); in-flight work on
	// it still counts if it lands, and queued work re-plans elsewhere.
	EventWorkerLeft EventKind = "worker-left"
	// EventRound: an adaptive (or the single fixed) round completed and
	// was merged into the accumulated report.
	EventRound EventKind = "round"
	// EventBanked: a shard was satisfied from the artifact store
	// without dispatching to any worker.
	EventBanked EventKind = "banked"
)

// Event is one coordinator progress observation.
type Event struct {
	Kind   EventKind
	Worker string       // the transport's Name (shard and membership events)
	Shard  engine.Shard // the affected run range (shard events)
	Round  scenario.Round
	Err    error // EventFailure / EventWorkerDead cause
	// Wire is the dispatch's wire cost (EventResult / EventPartial,
	// when the transport reports it — in-process fleets have no wire).
	Wire WireStats
}

type workerState struct {
	t        Transport
	id       string
	weight   float64
	busy     bool
	dead     bool // exhausted its failure budget (never rejoins)
	left     bool // disappeared from the fleet membership (may rejoin)
	failures int
}

func (w *workerState) usable() bool { return !w.dead && !w.left }

type shardState struct {
	span      engine.Shard
	pref      int // worker index the weighted split planned it for (-1: none)
	resolved  bool
	inflight  int
	failures  int
	attempted map[int]bool // worker idx ever handed this shard
	failed    map[int]bool // worker idx that failed it (never retried there)
}

func newShardState(span engine.Shard, pref int) *shardState {
	return &shardState{span: span, pref: pref, attempted: map[int]bool{}, failed: map[int]bool{}}
}

type result struct {
	wi  int
	s   *shardState
	rep *report.Report
	err error
}

// RunFleet fans one whole Job out over an elastic fleet: membership is
// re-read between dispatches (joiners are admitted mid-round, evicted
// members stop receiving work), each round's run range is split into
// contiguous shards sized by the members' capacity weights, and the
// merged Report is bit-identical to the single-process run — churn
// moves work around, never changes results. With a dynamic fleet
// (Fleet.Updates non-nil) running out of workers WAITS for a join
// instead of failing; cancel ctx to give up.
func RunFleet(ctx context.Context, job scenario.Job, fleet Fleet, opts Options) (*report.Report, error) {
	return runFleet(ctx, job, nil, false, fleet, opts)
}

// Resume continues a checkpointed campaign over the fleet. from is the
// banked partial Report to extend (validated against the job exactly
// like scenario.ResumeJob, precision block exempt); a nil from loads
// the campaign checkpoint the last fan-out of this job banked in the
// artifact store, and runs from scratch when there is none. The
// finished Report is bit-for-bit the uninterrupted run's.
func Resume(ctx context.Context, job scenario.Job, from *report.Report, fleet Fleet, opts Options) (*report.Report, error) {
	return runFleet(ctx, job, from, true, fleet, opts)
}

func runFleet(ctx context.Context, job scenario.Job, from *report.Report, resume bool, fleet Fleet, opts Options) (*report.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if fleet == nil {
		return nil, errors.New("coordinator: no fleet")
	}
	if !job.Shard.IsWhole() {
		return nil, fmt.Errorf("coordinator: job already selects shard %s; the coordinator owns the whole range", job.Shard)
	}
	plan, err := scenario.NewPlan(job.Spec)
	if err != nil {
		return nil, err
	}
	c := &run{job: job, opts: opts.normalized(), fleet: fleet, byID: map[string]int{}}
	c.st = c.opts.Store
	if c.st == nil {
		c.st = store.Default()
	}
	if c.st != nil {
		c.specJSON, err = json.Marshal(job.Spec)
		if err != nil {
			return nil, err
		}
	}
	var acc *report.Report
	if resume {
		if from != nil {
			if acc, err = scenario.PrepareResume(job, from); err != nil {
				return nil, err
			}
		} else {
			acc = c.bankedCampaign()
		}
	}
	c.sync()
	for {
		rp, err := plan.Next(acc)
		if err != nil {
			return acc, err
		}
		if rp.Done {
			break
		}
		round, err := c.round(ctx, rp.Start, rp.End)
		if err != nil {
			return acc, err
		}
		plan.Stamp(round)
		if acc == nil {
			acc = round
		} else if err := acc.Extend(round); err != nil {
			return acc, fmt.Errorf("coordinator: extending after round [%d,%d): %w", rp.Start, rp.End, err)
		}
		c.bankCampaign(acc)
		if c.opts.Progress != nil {
			peek, err := plan.Next(acc)
			if err != nil {
				return acc, err
			}
			c.event(Event{Kind: EventRound, Round: scenario.Round{
				Start: rp.Start, End: rp.End, Covered: acc.RunCount,
				SE: peek.SE, Target: plan.Target().SE, Done: peek.Done,
			}})
		}
	}
	plan.Finalize(acc)
	c.bankCampaign(acc)
	return acc, nil
}

type run struct {
	job      scenario.Job
	opts     Options
	fleet    Fleet
	workers  []*workerState // grows on joins; indexes are stable forever
	byID     map[string]int // member ID -> workers index
	st       *store.Store   // nil: no banking
	specJSON []byte         // canonical spec bytes for shard keys
}

// sync reconciles the dispatcher's worker table with the fleet's
// current membership. Worker slots are append-only — a departed member
// keeps its index (and its failure history) so in-flight results and
// per-worker bookkeeping stay attached; rejoining under the same ID
// reactivates the slot, a fresh registration gets a fresh one.
func (c *run) sync() {
	members := c.fleet.Members()
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		seen[m.ID] = true
		weight := m.Weight
		if weight <= 0 {
			weight = 1
		}
		if wi, ok := c.byID[m.ID]; ok {
			w := c.workers[wi]
			w.weight = weight
			if w.left {
				w.left = false
				c.event(Event{Kind: EventWorkerJoin, Worker: w.t.Name()})
			}
			continue
		}
		w := &workerState{t: m.Transport, id: m.ID, weight: weight}
		c.byID[m.ID] = len(c.workers)
		c.workers = append(c.workers, w)
		c.event(Event{Kind: EventWorkerJoin, Worker: w.t.Name()})
	}
	for _, w := range c.workers {
		if !w.left && !seen[w.id] {
			w.left = true
			c.event(Event{Kind: EventWorkerLeft, Worker: w.t.Name()})
		}
	}
}

// storeKindReport namespaces banked shard reports in the artifact
// store; storeKindCampaign the accumulated whole-campaign checkpoints.
const (
	storeKindReport   = "report"
	storeKindCampaign = "campaign"
)

// shardKey is a shard report's content address: the job's canonical
// spec JSON, the rng stream version the runs draw from, and the exact
// run range — everything the shard's bits are a pure function of.
func (c *run) shardKey(span engine.Shard) string {
	return store.Key(storeKindReport, string(c.specJSON), rng.StreamVersion,
		strconv.Itoa(span.Start), strconv.Itoa(span.End))
}

// campaignKey is the accumulated campaign report's content address:
// spec and stream, no range — each banking overwrites the last, so the
// store always holds the newest checkpoint of this campaign.
func (c *run) campaignKey() string {
	return store.Key(storeKindCampaign, string(c.specJSON), rng.StreamVersion)
}

// bankCampaign checkpoints the accumulated campaign report after a
// round, best-effort: it is what Resume(from=nil) finds after a crash
// of the COORDINATOR (worker crashes never need it — shard banking
// already covers those).
func (c *run) bankCampaign(acc *report.Report) {
	if c.st == nil || acc == nil {
		return
	}
	var buf bytes.Buffer
	if err := report.WriteReportsBinary(&buf, []*report.Report{acc}, true); err != nil {
		return
	}
	c.st.Put(storeKindCampaign, c.campaignKey(), buf.Bytes()) //nolint:errcheck // best-effort
}

// bankedCampaign loads the campaign checkpoint a previous fan-out of
// this job banked, validated exactly like an explicit resume
// checkpoint; anything stale or invalid is evicted and ignored.
func (c *run) bankedCampaign() *report.Report {
	if c.st == nil {
		return nil
	}
	blob, ok, err := c.st.Get(storeKindCampaign, c.campaignKey())
	if err != nil || !ok {
		return nil
	}
	if reps, err := report.DecodeReports(blob); err == nil && len(reps) == 1 {
		if acc, err := scenario.PrepareResume(c.job, reps[0]); err == nil {
			return acc
		}
	}
	c.st.Delete(storeKindCampaign, c.campaignKey()) //nolint:errcheck // eviction is best-effort
	return nil
}

// bankedShard loads a shard's banked full report from the store,
// re-validating what a corrupted or colliding artifact could break;
// anything invalid is evicted so the shard just dispatches normally.
//
// The blob is read through the store's mapped path and decoded
// zero-copy, so the returned report may alias the mapping: release is
// non-nil exactly when a report is, and the caller must hold it until
// the report's samples have been folded into owned memory (the round's
// Merged deep-copies, so releasing after merge is safe).
func (c *run) bankedShard(span engine.Shard) (*report.Report, func()) {
	key := c.shardKey(span)
	blob, release, ok, err := c.st.GetMapped(storeKindReport, key)
	if err != nil || !ok {
		return nil, nil
	}
	if reps, err := report.DecodeReports(blob); err == nil && len(reps) == 1 {
		rep := reps[0]
		if rep.RunStart == span.Start && rep.RunCount == span.End-span.Start && rep.Stream == rng.StreamVersion {
			return rep, release
		}
	}
	release()
	c.st.Delete(storeKindReport, key) //nolint:errcheck // eviction is best-effort
	return nil, nil
}

// bankShard persists one full shard report, best-effort: a failed Put
// only costs a future cache hit.
func (c *run) bankShard(span engine.Shard, rep *report.Report) {
	var buf bytes.Buffer
	if err := report.WriteReportsBinary(&buf, []*report.Report{rep}, true); err != nil {
		return
	}
	c.st.Put(storeKindReport, c.shardKey(span), buf.Bytes()) //nolint:errcheck // best-effort
}

func (c *run) event(e Event) {
	if c.opts.Progress != nil {
		c.opts.Progress(e)
	}
}

// aliveWorkers returns the indexes of the workers dispatchable right
// now: present in the membership and under their failure budget.
func (c *run) aliveWorkers() []int {
	var out []int
	for wi, w := range c.workers {
		if w.usable() {
			out = append(out, wi)
		}
	}
	return out
}

// round executes the run range [start, end) across the fleet and
// returns it merged into one report.
func (c *run) round(ctx context.Context, start, end int) (*report.Report, error) {
	updates := c.fleet.Updates()
	c.sync()
	// A dynamic fleet may legitimately be empty between campaigns —
	// wait for capacity. A static one cannot grow, so fail fast.
	for len(c.aliveWorkers()) == 0 {
		if updates == nil {
			return nil, errors.New("coordinator: all workers dead")
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-updates:
			c.sync()
		}
	}
	rctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// The weighted split: each alive worker gets ShardsPerWorker slots
	// sized by its capacity weight, so a weight-2 member is planned
	// about twice the runs per round. Shard boundaries never change
	// results — only who computes what, and how evenly.
	alive := c.aliveWorkers()
	var weights []float64
	var owners []int
	for _, wi := range alive {
		for k := 0; k < c.opts.ShardsPerWorker; k++ {
			weights = append(weights, c.workers[wi].weight)
			owners = append(owners, wi)
		}
	}
	var shards []*shardState
	for i, span := range scenario.SplitSpanWeighted(start, end, weights) {
		if span.End <= span.Start {
			continue // a zero share (range shorter than slots)
		}
		shards = append(shards, newShardState(span, owners[i]))
	}
	cov := report.NewCoverage()
	remaining := len(shards)
	// Banked shards resolve before any dispatch: a re-run of an
	// interrupted or repeated campaign only computes what is missing.
	// Their reports may alias store mappings, so the mappings are held
	// until the round's merge has folded every sample into owned memory.
	var mappings []func()
	defer func() {
		for _, release := range mappings {
			release()
		}
	}()
	if c.st != nil {
		for _, s := range shards {
			if rep, release := c.bankedShard(s.span); rep != nil {
				mappings = append(mappings, release)
				if _, err := cov.Add(rep); err != nil {
					return nil, err
				}
				s.resolved = true
				remaining--
				c.event(Event{Kind: EventBanked, Shard: s.span})
			}
		}
	}
	inflight := 0
	// Sized for the planned fleet; a worker has at most one outstanding
	// dispatch, so sends only block momentarily if the fleet grows
	// mid-round — and every send is matched by a receive (the select
	// loop or drain), so nothing deadlocks or leaks.
	results := make(chan result, len(c.workers)+len(shards))
	cancels := map[*shardState]map[int]context.CancelFunc{}

	dispatch := func(wi int, s *shardState) {
		w := c.workers[wi]
		w.busy = true
		s.inflight++
		s.attempted[wi] = true
		inflight++
		dctx, dcancel := context.WithCancel(rctx)
		if c.opts.DispatchTimeout > 0 {
			dctx, dcancel = context.WithTimeout(rctx, c.opts.DispatchTimeout)
		}
		if cancels[s] == nil {
			cancels[s] = map[int]context.CancelFunc{}
		}
		cancels[s][wi] = dcancel
		c.event(Event{Kind: EventDispatch, Worker: w.t.Name(), Shard: s.span})
		go func() {
			rep, err := w.t.Run(dctx, scenario.Job{Spec: c.job.Spec, Shard: s.span})
			results <- result{wi: wi, s: s, rep: rep, err: err}
		}()
	}
	resolve := func(s *shardState) {
		s.resolved = true
		remaining--
		for _, dc := range cancels[s] {
			dc() // cancel straggling duplicates; their results are discarded
		}
		delete(cancels, s)
	}
	drain := func() {
		cancelAll()
		for inflight > 0 {
			r := <-results
			inflight--
			c.workers[r.wi].busy = false
		}
	}
	defer drain()

	for remaining > 0 {
		for wi, w := range c.workers {
			if !w.usable() || w.busy {
				continue
			}
			if s := c.pickShard(shards, wi); s != nil {
				dispatch(wi, s)
			}
		}
		if inflight == 0 && updates == nil {
			// A static fleet cannot gain the worker an unresolved shard
			// needs; a dynamic one falls through and waits for a join.
			for _, s := range shards {
				if !s.resolved {
					return nil, fmt.Errorf("coordinator: shard %s: no worker left to run it (%d failures, %d alive workers; round still missing runs %s)",
						s.span, s.failures, len(c.aliveWorkers()), gapList(cov.Gaps(start, end)))
				}
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-updates:
			c.sync()
		case r := <-results:
			inflight--
			w := c.workers[r.wi]
			w.busy = false
			r.s.inflight--
			if dc := cancels[r.s][r.wi]; dc != nil {
				dc()
				delete(cancels[r.s], r.wi)
			}
			if r.s.resolved {
				continue // a replacement already resolved this shard
			}
			full := r.s.span.End - r.s.span.Start
			switch {
			case r.err == nil && prefixOf(r.rep, r.s.span) && r.rep.RunCount == full:
				// Results from since-departed workers still count: the
				// bytes are bit-deterministic wherever they were computed.
				if _, err := cov.Add(r.rep); err != nil {
					return nil, err
				}
				if c.st != nil {
					c.bankShard(r.s.span, r.rep)
				}
				resolve(r.s)
				c.event(Event{Kind: EventResult, Worker: w.t.Name(), Shard: r.s.span, Wire: lastWire(w.t)})
			case r.err != nil && prefixOf(r.rep, r.s.span) && r.rep.RunCount > 0 && r.rep.RunCount < full:
				// The worker died mid-shard but checkpointed a prefix:
				// bank it, requeue only the remainder — elsewhere.
				if _, err := cov.Add(r.rep); err != nil {
					return nil, err
				}
				resolve(r.s)
				rest := newShardState(engine.Span(r.s.span.Start+r.rep.RunCount, r.s.span.End), -1)
				rest.failed[r.wi] = true
				shards = append(shards, rest)
				remaining++
				c.workerFailed(r.wi, r.err)
				c.event(Event{Kind: EventPartial, Worker: w.t.Name(), Shard: r.s.span, Err: r.err, Wire: lastWire(w.t)})
			default:
				err := r.err
				if err == nil && r.rep == nil {
					err = fmt.Errorf("coordinator: %s returned no report for shard %s", w.t.Name(), r.s.span)
				} else if err == nil {
					err = fmt.Errorf("coordinator: %s returned runs [%d,%d) for shard %s",
						w.t.Name(), r.rep.RunStart, r.rep.RunStart+r.rep.RunCount, r.s.span)
				}
				r.s.failures++
				r.s.failed[r.wi] = true
				c.workerFailed(r.wi, err)
				if r.s.failures >= c.opts.MaxAttempts {
					return nil, fmt.Errorf("coordinator: shard %s failed %d times, giving up: %w",
						r.s.span, r.s.failures, err)
				}
				c.event(Event{Kind: EventFailure, Worker: w.t.Name(), Shard: r.s.span, Err: err})
			}
		}
	}
	return cov.Merged()
}

// pickShard chooses work for an idle worker: first a queued shard the
// weighted split planned for this worker, then any queued shard it has
// not failed, then — unless speculation is off — a straggling in-flight
// shard it has not yet attempted.
func (c *run) pickShard(shards []*shardState, wi int) *shardState {
	for _, s := range shards {
		if !s.resolved && s.inflight == 0 && s.pref == wi && !s.failed[wi] {
			return s
		}
	}
	for _, s := range shards {
		if !s.resolved && s.inflight == 0 && !s.failed[wi] {
			return s
		}
	}
	if c.opts.NoSpeculation {
		return nil
	}
	for _, s := range shards {
		if !s.resolved && s.inflight == 1 && !s.attempted[wi] {
			return s
		}
	}
	return nil
}

// workerFailed books one failed dispatch against a worker, removing it
// from the fleet at WorkerFailLimit.
func (c *run) workerFailed(wi int, cause error) {
	w := c.workers[wi]
	w.failures++
	if !w.dead && w.failures >= c.opts.WorkerFailLimit {
		w.dead = true
		c.event(Event{Kind: EventWorkerDead, Worker: w.t.Name(), Err: cause})
	}
}

// lastWire reads a transport's wire cost for the dispatch that just
// returned (zero for transports without a wire, e.g. in-process).
func lastWire(t Transport) WireStats {
	if wr, ok := t.(WireReporter); ok {
		return wr.LastWire()
	}
	return WireStats{}
}

// prefixOf reports whether rep covers a (possibly complete) prefix of
// the dispatched span — the only shapes a worker may legally return.
func prefixOf(rep *report.Report, span engine.Shard) bool {
	return rep != nil && rep.RunStart == span.Start && rep.RunCount <= span.End-span.Start
}

// gapList formats uncovered run ranges for failure messages.
func gapList(gaps [][2]int) string {
	if len(gaps) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(gaps))
	for _, g := range gaps {
		parts = append(parts, fmt.Sprintf("[%d,%d)", g[0], g[1]))
	}
	return strings.Join(parts, " ")
}
