// Package service is the concurrent agreement-serving runtime: it accepts a
// stream of m/u-degradable agreement requests and executes them on a sharded
// worker pool.
//
// A fault-free request needs no exchange: D.1 forces every node's decision
// to the sender's value. It is decided at submission, on the submitting
// goroutine, and never queues, so it is never shed with ErrOverloaded.
//
// Every other request runs on a shard. Each shard is one goroutine that owns
// its protocol instances end-to-end — requests are admitted through a
// bounded per-shard queue with explicit rejection (never blocking) and
// executed by the round engine's inline Reference driver, so the hot path
// takes no locks. Identically-shaped instances (same N, m,
// u, sender) are batched: the shard drains its queue up to the batch size
// and runs each shape group on the shape's warm instance (runner.Warm), so
// per-instance setup (strategy construction, spec condition selection,
// engine wiring) is amortized across the batch.
//
// Serving never silently violates the paper's conditions: every shard
// routes a deterministic sample of its results through the executable
// specification (internal/spec) and counts violations, which callers can
// read from Stats. This is the §2 Observation made operational — with
// N > 2m+u the service degrades per request (some receivers fall back to
// V_d) but never fails to produce m+1 fault-free agreement, and the sampler
// continuously re-checks that contract in production.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/obs"
	"degradable/internal/types"
)

// Admission errors, matchable with errors.Is.
var (
	// ErrOverloaded marks a request rejected because the target shard's
	// queue was full. The request was not executed; callers may retry.
	ErrOverloaded = errors.New("service: overloaded (shard queue full)")
	// ErrClosed marks a request submitted after Close began.
	ErrClosed = errors.New("service: closed")
	// ErrInvalid wraps request-validation failures rejected at admission.
	ErrInvalid = errors.New("service: invalid request")
	// ErrQuota marks a request shed by per-tenant admission control: the
	// tenant's token bucket was empty. Produced by the fleet router (the
	// service itself imposes no quotas) and mapped to the wire protocol's
	// RESOURCE_EXHAUSTED-style status; shared here so every layer speaks
	// the same error vocabulary.
	ErrQuota = errors.New("service: per-tenant quota exhausted")
)

// Config parameterizes a Service.
type Config struct {
	// Shards is the number of worker goroutines (default GOMAXPROCS; there
	// is no benefit in exceeding it).
	Shards int
	// QueueDepth is the per-shard admission queue bound (default 1024).
	// A full queue rejects with ErrOverloaded rather than blocking. Only
	// requests with an armed fault queue: a fault-free one is decided at
	// submission.
	QueueDepth int
	// Batch is the maximum number of requests a shard drains per scheduling
	// round (default 64). Identically-shaped requests within a batch share
	// one pooled instance.
	Batch int
	// SpecSample routes every SpecSample-th completed instance per shard
	// (fault-free ones decided at submission count toward their slot's
	// shard) through the full executable spec (default 8; 1 checks every
	// instance, negative disables sampling).
	SpecSample int
	// Sink, when non-nil, receives a structured verdict event for every
	// spec-checked instance (obs.EvVerdict, carrying the D condition and
	// the ok/graceful bits).
	Sink obs.Sink
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.SpecSample == 0 {
		c.SpecSample = 8
	}
	return c
}

// FaultSpec is the repo's one fault record, adversary.FaultSpec, under the
// name the benchmark's request generators use.
type FaultSpec = adversary.FaultSpec

// Request is one m/u-degradable agreement instance to execute.
type Request struct {
	// N, M, U are the instance parameters (N > 2M+U).
	N, M, U int
	// Sender is the distributing node (default 0).
	Sender types.NodeID
	// Value is the sender's input.
	Value types.Value
	// Faults arms the fault set.
	Faults []adversary.FaultSpec
	// Tenant bills the request to an admission-control tenant (0 =
	// untenanted). Carried by tagged wire frames; does not affect
	// execution or batching, only accounting.
	Tenant uint32
}

// shape is the batching key: requests with equal shapes run on the same
// pooled instance.
func (r Request) shape() core.Params { return core.Params{N: r.N, M: r.M, U: r.U, Sender: r.Sender} }

// Validate checks the request against the Theorem-2 feasibility bounds and
// its fault list with adversary.CheckFaults. Strategy construction is
// deferred to the shard (it is part of what batching amortizes).
func (r Request) Validate() error {
	_, err := r.check()
	return err
}

// check is Validate returning the request's faulty set.
func (r Request) check() (types.NodeSet, error) {
	if err := r.shape().Validate(); err != nil {
		return 0, err
	}
	if r.N > int(types.MaxNodeSetID)+1 {
		return 0, fmt.Errorf("service: N=%d exceeds the node-set limit %d", r.N, types.MaxNodeSetID+1)
	}
	return adversary.CheckFaults(r.N, r.Faults)
}

// Response reports one executed instance.
type Response struct {
	// Decisions is every node's decision, indexed by node ID. Faulty nodes
	// report V_d. The slice aliases the completed request's task buffer: it
	// is valid until the Slot that produced it is submitted again (responses
	// from Submit/Do are backed by a per-call task and never invalidated).
	Decisions []types.Value
	// Condition is the paper condition that applied ("D.1".."D.4", or
	// "none" beyond u faults), selected from the request's fault count.
	Condition string
	// Degraded reports whether degradation manifested: the fault-free
	// receivers did not unanimously decide one non-default value.
	Degraded bool
	// Checked reports whether this instance was routed through the full
	// executable spec (the sampling mode).
	Checked bool
	// OK is the spec verdict when Checked (true otherwise — an unchecked
	// instance carries no violation evidence).
	OK bool
	// Graceful is the §2 m+1 agreement floor, populated when Checked.
	Graceful bool
	// Reason explains a spec violation (empty when OK).
	Reason string
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	// Accepted counts admitted requests: queued on a shard, or decided at
	// submission.
	Accepted uint64
	// Rejected counts requests refused with ErrOverloaded.
	Rejected uint64
	// Completed counts executed instances (answered requests).
	Completed uint64
	// Degraded counts completed instances whose Response.Degraded was set.
	Degraded uint64
	// SpecChecked counts instances routed through the executable spec.
	SpecChecked uint64
	// SpecViolations counts sampled instances whose verdict failed. Always
	// zero unless the protocol or runtime is broken.
	SpecViolations uint64
	// FastHits counts instances decided by the optimistic unanimity fast
	// path without materializing the EIG exchange.
	FastHits uint64
	// FastFallbacks counts instances that ran the full VOTE path.
	FastFallbacks uint64
}

// task is one submitted request with its completion slot. faulty is the
// request's faulty set, from admission. dec is the task-owned decision
// buffer the deciding goroutine fills; Response.Decisions aliases it, which
// is what lets a reused Slot serve a request without a single allocation.
// decMap is the spec sampler's reusable decision map.
type task struct {
	req    Request
	faulty types.NodeSet
	done   chan Outcome
	dec    []types.Value
	decMap map[types.NodeID]types.Value
}

// Outcome is one answered request: the response, or the error that stopped
// its execution.
type Outcome struct {
	Resp Response
	Err  error
}

// Indices into the service's sharded obs counters. Each shard owns one
// obs.Block (two cache lines of padding, the same false-sharing-free layout
// the old bespoke shardStats struct had), so the hot Add loops never
// contend across shards.
const (
	statAccepted = iota
	statRejected
	statCompleted
	statDegraded
	statSpecChecked
	statSpecViolations
	statDeciders   // fault-free non-sender receivers that decided
	statVdDeciders // of those, how many fell back to V_d
	statCondD1     // completed instances per selected condition
	statCondD2
	statCondD3
	statCondD4
	statCondNone
	statFastHit      // instances decided by the optimistic fast path
	statFastFallback // instances that ran the full VOTE path
	numStats
)

// statNames are the unified-snapshot names of the service counters, in
// index order.
var statNames = []string{
	"accepted_total", "rejected_total", "completed_total", "degraded_total",
	"spec_checked_total", "spec_violations_total",
	"deciders_total", "vd_deciders_total",
	"condition_d1_total", "condition_d2_total", "condition_d3_total",
	"condition_d4_total", "condition_none_total",
	"fastpath_hit_total", "fastpath_fallback_total",
}

// Service is the sharded agreement-serving runtime. Construct with New,
// submit with Do or Submit, and Close to drain.
type Service struct {
	cfg    Config
	shards []*shard
	next   atomic.Uint64
	closed atomic.Bool
	term   chan struct{} // closed when every shard has exited
	wg     sync.WaitGroup

	// stats shard i belongs to shards[i]: each shard writes only its own
	// padded block (admission counts, and every count of a request decided
	// at submission, are bumped by the submitting goroutine, still on the
	// target shard's block), and readers sum across shards.
	stats *obs.Sharded
	// floor tracks the minimum observed §2 m+1-floor margin across all
	// spec-checked instances: largest fault-free agreement class minus
	// (m+1). Negative would mean the Observation's guarantee was violated.
	floor *obs.MinGauge
	// sheds counts queue-full admission rejections per tenant, so overload
	// is never a silent drop: the wire layer reports it with an explicit
	// status and this family says who was shedding.
	sheds *obs.Labeled
}

// New starts a service with the given configuration.
func New(cfg Config) *Service {
	s := newUnstarted(cfg)
	s.start()
	return s
}

// newUnstarted builds the service without launching shard goroutines.
// Tests use it to exercise admission and drain deterministically.
func newUnstarted(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{cfg: cfg, term: make(chan struct{})}
	s.shards = make([]*shard, cfg.Shards)
	s.stats = obs.NewSharded(cfg.Shards, statNames...)
	s.floor = obs.NewMinGauge()
	s.sheds = obs.NewLabeled("tenant")
	for i := range s.shards {
		s.shards[i] = &shard{
			svc:   s,
			stats: s.stats.Shard(i),
			in:    make(chan *task, cfg.QueueDepth),
			stop:  make(chan struct{}),
			pools: make(map[core.Params]*pool),
		}
	}
	return s
}

// start launches the shard goroutines.
func (s *Service) start() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run()
	}
}

// Config returns the resolved (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// Stats returns a snapshot of the service counters, summed across shards.
// The snapshot is not atomic across counters (shards keep running while it
// is taken), but each counter is individually consistent. It is a view
// over the obs-backed counters; Telemetry returns the full set.
func (s *Service) Stats() Stats {
	return Stats{
		Accepted:       s.stats.Sum(statAccepted),
		Rejected:       s.stats.Sum(statRejected),
		Completed:      s.stats.Sum(statCompleted),
		Degraded:       s.stats.Sum(statDegraded),
		SpecChecked:    s.stats.Sum(statSpecChecked),
		SpecViolations: s.stats.Sum(statSpecViolations),
		FastHits:       s.stats.Sum(statFastHit),
		FastFallbacks:  s.stats.Sum(statFastFallback),
	}
}

// VdDeciderFraction returns the fraction of fault-free receivers that fell
// back to V_d across all completed instances (0 before any completions).
func (s *Service) VdDeciderFraction() (float64, bool) {
	deciders := s.stats.Sum(statDeciders)
	if deciders == 0 {
		return 0, false
	}
	return float64(s.stats.Sum(statVdDeciders)) / float64(deciders), true
}

// FloorMargin returns the minimum observed m+1-floor margin across
// spec-checked instances, and whether any instance was checked yet.
func (s *Service) FloorMargin() (int64, bool) { return s.floor.Load() }

// TenantKey renders a tenant ID as the label value used by every
// per-tenant counter family.
func TenantKey(tenant uint32) string {
	return strconv.FormatUint(uint64(tenant), 10)
}

// Sheds returns the per-tenant queue-full rejection counters.
func (s *Service) Sheds() *obs.Labeled { return s.sheds }

// Telemetry returns all service counters and degradation gauges as the
// unified snapshot schema.
func (s *Service) Telemetry() obs.Snapshot {
	snap := s.stats.Snapshot()
	snap.SetCounter("admission_shed_total", s.sheds.Total())
	s.sheds.Each(func(value string, count uint64) {
		snap.SetCounter(obs.SeriesKey("admission_shed_total", "tenant", value), count)
	})
	if frac, ok := s.VdDeciderFraction(); ok {
		snap.SetGauge("vd_decider_fraction", frac)
	}
	if margin, ok := s.FloorMargin(); ok {
		snap.SetGauge("floor_margin_min", float64(margin))
	}
	return snap
}

// Register mounts the service's telemetry on an obs registry under the
// service_ prefix: per-counter views plus the degradation gauges the
// /metrics endpoint exposes (verdict-class counts, V_d-decider fraction,
// m+1-floor margin).
func (s *Service) Register(r *obs.Registry) {
	r.Sharded("service", "service counter (summed across shards)", s.stats)
	r.Labeled("service_admission_shed_total",
		"queue-full admission rejections per tenant", s.sheds)
	r.Gauge("service_vd_decider_fraction",
		"fraction of fault-free receivers that decided the default value V_d",
		s.VdDeciderFraction)
	r.Gauge("service_floor_margin_min",
		"minimum observed margin of the largest fault-free agreement class over the m+1 floor",
		func() (float64, bool) {
			margin, ok := s.FloorMargin()
			return float64(margin), ok
		})
}

// Submit submits one request on a one-shot Slot, returning a channel that
// will carry exactly one outcome; see Slot.Submit.
func (s *Service) Submit(req Request) (<-chan Outcome, error) {
	sl := s.NewSlot()
	if err := sl.Submit(req); err != nil {
		return nil, err
	}
	return sl.Outcome(), nil
}

// enqueue places a validated task on the shard's queue, non-blocking.
func (sh *shard) enqueue(t *task) error {
	select {
	case sh.in <- t:
		sh.stats.Inc(statAccepted)
		return nil
	default:
		sh.stats.Inc(statRejected)
		sh.svc.sheds.Get(TenantKey(t.req.Tenant)).Inc()
		return ErrOverloaded
	}
}

// Slot is a reusable submission handle: one pre-allocated task, completion
// channel, decision buffer, and fault scratch, recycled across requests so a
// steady-state caller (the wire server's per-connection loop, a load-test
// worker) submits without allocating; Service.Submit and Service.Do use a
// fresh one per call. A Slot serves one request at a time — Submit again
// only after the previous outcome was received — and is not safe for
// concurrent use.
//
// A fault-free request is decided inside Submit and its outcome is ready
// when Submit returns: it never queues, so it is never shed with
// ErrOverloaded. Its counters still go to the slot's shard.
//
// A Slot submits to one shard for its whole life, and slots are dealt to the
// shards round-robin as they are made, so callers that make them on demand
// still spread over every shard. A shard's pooled complement is megabytes
// that sit in the cache of the core that last ran it: were each request dealt
// to the next shard instead, two closed-loop callers would trade shards
// whenever their completions changed order, each then running on the
// complement the other core has warm, which slows both and keeps the order
// changing — a state a depth-4 run stays in once it is there, a third slower.
type Slot struct {
	svc    *Service
	sh     *shard
	t      *task
	faults []adversary.FaultSpec
}

// NewSlot returns a reusable submission handle bound to the service, on
// the next shard round-robin.
func (s *Service) NewSlot() *Slot {
	sh := s.shards[(s.next.Add(1)-1)%uint64(len(s.shards))]
	return &Slot{svc: s, sh: sh, t: &task{done: make(chan Outcome, 1)}}
}

// Submit validates req and decides it on the slot's recycled task: a
// fault-free request at once, any other on the slot's shard. Admission is
// non-blocking: a full shard queue rejects with ErrOverloaded immediately.
// Requests admitted before Close are always answered (shutdown drains the
// queues). The slot copies req.Faults into its own scratch, so callers may
// reuse their fault buffer immediately. Exactly one outcome will arrive on
// Outcome() unless an error is returned.
func (sl *Slot) Submit(req Request) error {
	if sl.svc.closed.Load() {
		return ErrClosed
	}
	faulty, err := req.check()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	sl.faults = append(sl.faults[:0], req.Faults...)
	req.Faults = sl.faults
	sl.t.req, sl.t.faulty = req, faulty
	if len(req.Faults) == 0 {
		sl.sh.decideForced(sl.t)
		return nil
	}
	return sl.sh.enqueue(sl.t)
}

// Outcome returns the channel carrying the slot's next completion. The
// channel identity changes after an abandoned Do, so re-read it per wait
// rather than caching it across Submits.
func (sl *Slot) Outcome() <-chan Outcome { return sl.t.done }

// Do submits one request on the slot and waits for its response. ctx
// cancels the wait (not the execution: an admitted request still runs and
// is accounted, its result discarded).
func (sl *Slot) Do(ctx context.Context, req Request) (Response, error) {
	if err := sl.Submit(req); err != nil {
		return Response{}, err
	}
	select {
	case out := <-sl.t.done:
		return out.Resp, out.Err
	case <-ctx.Done():
		// The admitted task still runs; the shard will complete it into the
		// old channel. Abandon the task so the slot's next request cannot
		// race with that late completion.
		sl.abandon()
		return Response{}, ctx.Err()
	case <-sl.svc.term:
		// Close raced the enqueue; one final non-blocking read settles it.
		select {
		case out := <-sl.t.done:
			return out.Resp, out.Err
		default:
			sl.abandon()
			return Response{}, ErrClosed
		}
	}
}

// abandon detaches the slot from an in-flight task it no longer waits for.
// The fault scratch goes with it: the abandoned task's request still aliases
// it, and the shard may yet read it.
func (sl *Slot) abandon() {
	sl.t = &task{done: make(chan Outcome, 1)}
	sl.faults = nil
}

// Do submits one request on a one-shot Slot and waits for its response;
// see Slot.Do.
func (s *Service) Do(ctx context.Context, req Request) (Response, error) {
	return s.NewSlot().Do(ctx, req)
}

// Close stops admission, drains every shard queue (all admitted requests
// are answered), and waits for the shards to exit. Close is idempotent.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		<-s.term // concurrent Close waits for the first to finish
		return
	}
	for _, sh := range s.shards {
		close(sh.stop)
	}
	s.wg.Wait()
	close(s.term)
}

// shard is one worker goroutine and its private state. Everything below
// but the counters and the sampler's count runs on the shard goroutine only
// — no locks anywhere on the path from dequeue to completion.
type shard struct {
	svc   *Service
	stats *obs.Block // this shard's padded counter block
	in    chan *task
	stop  chan struct{}
	pools map[core.Params]*pool
	// completions counts the shard's completed instances for the spec
	// sampler, those decided at submission included.
	completions atomic.Uint64
	// batch and groups are reusable scheduling scratch.
	batch  []*task
	groups map[core.Params][]*task
}

// run is the shard loop: block for one task, drain opportunistically up to
// the batch bound, then execute the batch grouped by shape.
func (sh *shard) run() {
	defer sh.svc.wg.Done()
	for {
		select {
		case t := <-sh.in:
			sh.collect(t)
			sh.execute()
		case <-sh.stop:
			// Drain: admitted requests are always answered.
			for {
				select {
				case t := <-sh.in:
					sh.collect(t)
					sh.execute()
				default:
					return
				}
			}
		}
	}
}

// collect fills the batch scratch with t plus whatever is already queued,
// up to the batch bound.
func (sh *shard) collect(t *task) {
	sh.batch = append(sh.batch[:0], t)
	for len(sh.batch) < sh.svc.cfg.Batch {
		select {
		case t2 := <-sh.in:
			sh.batch = append(sh.batch, t2)
		default:
			return
		}
	}
}

// execute runs the collected batch, grouped by shape so each group shares
// one pooled instance.
func (sh *shard) execute() {
	if len(sh.batch) == 1 {
		// The common uncontended case: skip group bookkeeping entirely.
		t := sh.batch[0]
		resp, err := sh.runOne(t)
		t.done <- Outcome{Resp: resp, Err: err}
		return
	}
	if sh.groups == nil {
		sh.groups = make(map[core.Params][]*task)
	}
	for _, t := range sh.batch {
		k := t.req.shape()
		sh.groups[k] = append(sh.groups[k], t)
	}
	// Groups are truncated, not deleted, so their backing arrays are reused
	// by the next batch (the map stays bounded by the distinct shapes seen,
	// exactly like the instance pools).
	for k, group := range sh.groups {
		if len(group) == 0 {
			continue
		}
		for _, t := range group {
			resp, err := sh.runOne(t)
			t.done <- Outcome{Resp: resp, Err: err}
		}
		sh.groups[k] = group[:0]
	}
}
