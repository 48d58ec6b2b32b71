// Fleet fault tolerance (DESIGN.md §10): the per-node health state
// machine (Ready → Suspect → Down → Recovering → Ready), crash
// harvesting, retry scheduling with capped exponential backoff and
// deterministic jitter, KV re-handoff vs. prefill recompute, and the
// per-node circuit breaker. Everything here runs in the single-threaded
// barrier code of run(), in machine-index order — faults quantize to
// tick barriers exactly like routing and autoscaling, which is what
// keeps a faulted fleet byte-identical across worker widths.
package cluster

import (
	"math"

	"aum/internal/chaos"
	"aum/internal/reqtrace"
	"aum/internal/rng"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/vcfg"
)

// FaultConfig enables fleet-level fault injection and parameterizes the
// failover machinery. The zero value of every field selects a
// documented default, matching the Config idiom.
type FaultConfig struct {
	// Schedule is the deterministic fleet fault plan; validated against
	// the machine list by Config.withDefaults.
	Schedule chaos.FleetSchedule
	// ConfirmDownS is the detection delay between a machine dying
	// (Suspect) and the fleet confirming the loss (Down) — only at the
	// Down transition are its in-flight requests harvested and
	// re-dispatched (default 0.2 s).
	ConfirmDownS float64
	// RecoveryWarmupS is the reboot-and-rewarm time between a fault
	// expiring and the machine serving again; the machine burns power
	// but takes no traffic, like an autoscaler warmup (default 2 s).
	RecoveryWarmupS float64
	// RetryBudget caps how many times one request may be re-dispatched
	// after crashes before it is failed outright (default 3).
	RetryBudget int
	// BackoffBaseS is the first retry delay; attempt k waits
	// min(BackoffBaseS·2^(k-1), BackoffCapS), jittered (default 50 ms).
	BackoffBaseS float64
	// BackoffCapS caps the exponential backoff (default 1 s).
	BackoffCapS float64
	// JitterFrac spreads each backoff uniformly over ±this fraction,
	// drawn from a stream derived from (Seed, class, request ID,
	// attempt) — pure data, so jitter cannot break width determinism
	// (default 0.2).
	JitterFrac float64
	// BreakerThreshold is the per-node circuit breaker: once a machine
	// has crashed this many times, its next rejoin is delayed by
	// BreakerHoldS on top of the recovery warmup (default 3).
	BreakerThreshold int
	// BreakerHoldS is the extra quarantine a tripped breaker adds
	// before the machine may serve again (default 10 s).
	BreakerHoldS float64
}

func (f FaultConfig) withDefaults() (FaultConfig, error) {
	const pkg = "cluster"
	if f.ConfirmDownS == 0 {
		f.ConfirmDownS = 0.2
	}
	if f.ConfirmDownS < 0 {
		return f, vcfg.Bad(pkg, "Config.Faults.ConfirmDownS", f.ConfirmDownS, ">= 0 (0 selects the 0.2 s default)")
	}
	if f.RecoveryWarmupS == 0 {
		f.RecoveryWarmupS = 2
	}
	if f.RecoveryWarmupS < 0 {
		return f, vcfg.Bad(pkg, "Config.Faults.RecoveryWarmupS", f.RecoveryWarmupS, ">= 0 (0 selects the 2 s default)")
	}
	if f.RetryBudget == 0 {
		f.RetryBudget = 3
	}
	if f.RetryBudget < 1 {
		return f, vcfg.Bad(pkg, "Config.Faults.RetryBudget", f.RetryBudget, ">= 1 (0 selects the default of 3; a zero budget would silently drop every crashed request)")
	}
	if f.BackoffBaseS == 0 {
		f.BackoffBaseS = 0.05
	}
	if f.BackoffBaseS < 0 {
		return f, vcfg.Bad(pkg, "Config.Faults.BackoffBaseS", f.BackoffBaseS, "> 0 (0 selects the 50 ms default)")
	}
	if f.BackoffCapS == 0 {
		f.BackoffCapS = 1
	}
	if f.BackoffCapS < f.BackoffBaseS {
		return f, vcfg.Bad(pkg, "Config.Faults.BackoffCapS", f.BackoffCapS, ">= BackoffBaseS (0 selects the 1 s default)")
	}
	if f.JitterFrac == 0 {
		f.JitterFrac = 0.2
	}
	if f.JitterFrac < 0 || f.JitterFrac >= 1 {
		return f, vcfg.Bad(pkg, "Config.Faults.JitterFrac", f.JitterFrac, "in [0, 1) (0 selects the 0.2 default)")
	}
	if f.BreakerThreshold == 0 {
		f.BreakerThreshold = 3
	}
	if f.BreakerThreshold < 1 {
		return f, vcfg.Bad(pkg, "Config.Faults.BreakerThreshold", f.BreakerThreshold, ">= 1 (0 selects the default of 3)")
	}
	if f.BreakerHoldS == 0 {
		f.BreakerHoldS = 10
	}
	if f.BreakerHoldS < 0 {
		return f, vcfg.Bad(pkg, "Config.Faults.BreakerHoldS", f.BreakerHoldS, ">= 0 (0 selects the 10 s default)")
	}
	return f, nil
}

// HealthEvent is one node health transition, in fleet time.
type HealthEvent struct {
	At      float64
	Machine string
	// State names the transition target: suspect | down | recovering |
	// ready | breaker-open | link-down | link-up | link-brownout |
	// link-nominal | straggler | straggler-clear.
	State string
}

// retryEntry is one crashed request awaiting re-dispatch.
type retryEntry struct {
	req     *serve.Request
	class   int
	at      float64 // earliest re-dispatch time (backoff + jitter)
	attempt int
}

// faultEngine owns the fleet's failover state. All its methods are
// called from the single-threaded barrier code.
type faultEngine struct {
	cfg  FaultConfig
	inj  *chaos.FleetInjector
	seed uint64

	// attempts is keyed by pointer, not ID: per-class generators can
	// reuse IDs, but a request object is unique.
	attempts map[*serve.Request]int
	retryq   []retryEntry
	routable []int // dispatchDue scratch, reused across barriers

	crashes      int
	redispatched int
	retried      int
	recomputed   int
	rerouted     int
	failed       int
	outages      int
	mttrSum      float64

	events []HealthEvent
	trace  *telemetry.Trace
	rt     *reqtrace.Tracer // per-request causal tracer (nil-safe)

	cCrashes      *telemetry.Counter
	cRetries      *telemetry.Counter
	cRedispatched *telemetry.Counter
	cRecomputed   *telemetry.Counter
	cRerouted     *telemetry.Counter
	cFailed       *telemetry.Counter
	reg           *telemetry.Registry
}

func newFaultEngine(cfg Config) (*faultEngine, error) {
	inj, err := chaos.NewFleetInjector(cfg.Faults.Schedule, len(cfg.Machines))
	if err != nil {
		return nil, err
	}
	reg := cfg.Telemetry
	return &faultEngine{
		cfg:           *cfg.Faults,
		inj:           inj,
		seed:          cfg.Seed,
		attempts:      make(map[*serve.Request]int),
		trace:         cfg.Trace,
		reg:           reg,
		cCrashes:      reg.Counter("aum_fleet_crashes_total"),
		cRetries:      reg.Counter("aum_fleet_retries_total"),
		cRedispatched: reg.Counter("aum_fleet_redispatched_total"),
		cRecomputed:   reg.Counter("aum_fleet_kv_recomputed_total"),
		cRerouted:     reg.Counter("aum_fleet_kv_rerouted_total"),
		cFailed:       reg.Counter("aum_fleet_retry_exhausted_total"),
	}, nil
}

func (fe *faultEngine) event(now float64, n *node, state string) {
	fe.events = append(fe.events, HealthEvent{At: now, Machine: n.name, State: state})
	fe.reg.Emit(now, "cluster", "node-health",
		telemetry.F("machine", n.name), telemetry.F("state", state))
}

// apply fires every scheduled fault (and expiry) due at this barrier
// and then advances detection/recovery timers. Called once per barrier
// before routing, so the balancer and decode-target picker already see
// the post-fault health states.
func (fe *faultEngine) apply(now float64, cfg Config, nodes []*node, link *kvLink) {
	for _, f := range fe.inj.Fire(now) {
		n := nodes[f.Event.Machine]
		switch f.Event.Kind {
		case chaos.MachineCrash:
			if f.Revert {
				fe.beginRecovery(now, cfg, nodes, link, n)
			} else {
				fe.crash(now, n)
			}
		case chaos.LinkDown:
			n.linkDown = !f.Revert
			if f.Revert {
				fe.event(now, n, "link-up")
			} else {
				fe.event(now, n, "link-down")
			}
		case chaos.LinkBrownout:
			if f.Revert {
				link.setDerate(f.Event.Machine, 1)
				fe.event(now, n, "link-nominal")
			} else {
				link.setDerate(f.Event.Machine, f.Event.Factor)
				fe.event(now, n, "link-brownout")
			}
		case chaos.Straggler:
			if f.Revert {
				n.env.M.SetFreqDerate(1)
				fe.event(now, n, "straggler-clear")
			} else {
				n.env.M.SetFreqDerate(f.Event.Factor)
				fe.event(now, n, "straggler")
			}
		}
	}
	// Detection and recovery timers, quantized to barriers.
	for i, n := range nodes {
		switch n.state {
		case stateSuspect:
			if now >= n.confirmAt-1e-9 {
				n.state = stateDown
				fe.event(now, n, "down")
				fe.harvest(now, cfg, nodes, link, n)
			}
		case stateRecovering:
			if now >= n.activeAt-1e-9 {
				n.state = stateActive
				fe.outages++
				fe.mttrSum += now - n.downSince
				n.outages++
				fe.event(now, n, "ready")
				fe.trace.Span("outage:"+n.name, "fleet", telemetry.PIDFleet, i,
					n.downSince, now, map[string]float64{"crashes": float64(n.crashes)})
			}
		}
	}
}

// crash moves a serving machine to Suspect: it is dead from this
// instant — it steps nothing and burns nothing — but the fleet has not
// noticed yet, so its in-flight requests sit unharvested until the
// Down confirmation. Crashing a powered-off standby machine is a
// no-op.
func (fe *faultEngine) crash(now float64, n *node) {
	switch n.state {
	case stateStandby, stateSuspect, stateDown:
		return
	case stateRecovering:
		// Crashed again mid-reboot: back to Suspect; the original
		// downSince stands so MTTR spans the whole compound outage.
		n.state = stateSuspect
		n.confirmAt = now + fe.cfg.ConfirmDownS
		n.crashes++
		fe.crashes++
		fe.cCrashes.Inc()
		fe.event(now, n, "suspect")
		return
	}
	n.state = stateSuspect
	n.downSince = now
	n.confirmAt = now + fe.cfg.ConfirmDownS
	n.crashes++
	fe.crashes++
	fe.cCrashes.Inc()
	// The machine's workers will be mutated behind its back at harvest;
	// a stale quiescence capture must never replay across the outage.
	n.env.M.InvalidateFastForward()
	fe.event(now, n, "suspect")
}

// beginRecovery handles a crash expiry: the machine starts rebooting.
// If the loss was never confirmed (outage shorter than ConfirmDownS),
// the in-flight state is still gone — a blip loses memory contents just
// as thoroughly — so the harvest happens now instead.
func (fe *faultEngine) beginRecovery(now float64, cfg Config, nodes []*node, link *kvLink, n *node) {
	switch n.state {
	case stateSuspect:
		fe.harvest(now, cfg, nodes, link, n)
	case stateDown:
		// Already harvested at confirmation.
	default:
		return // crash never applied (standby at injection time)
	}
	n.state = stateRecovering
	rejoin := now + fe.cfg.RecoveryWarmupS
	if n.crashes >= fe.cfg.BreakerThreshold && !n.breakerOpen {
		n.breakerOpen = true
		rejoin += fe.cfg.BreakerHoldS
		fe.event(now, n, "breaker-open")
	}
	n.activeAt = rejoin
	fe.event(now, n, "recovering")
}

// harvest strips a dead machine of every request it was carrying and
// queues each for re-dispatch: the engine's queue, in-flight prefill,
// decode batch and backlog; prefilled exports whose KV died with the
// machine; and KV handoffs in flight toward it, which are re-sent to a
// surviving decode sink over the original source's link when possible
// and fall back to prefill recompute otherwise.
func (fe *faultEngine) harvest(now float64, cfg Config, nodes []*node, link *kvLink, n *node) {
	self := -1
	for i, m := range nodes {
		if m == n {
			self = i
			break
		}
	}
	lost := n.env.Engine.Crash(now)
	n.env.M.InvalidateFastForward()
	for _, ex := range n.exports {
		lost = append(lost, ex.req)
	}
	n.exports = n.exports[:0]
	for _, h := range n.pending[n.handIdx:] {
		tgt := pickDecodeTarget(nodes, n.class, self)
		if tgt >= 0 && !nodes[h.src].linkDown {
			// The source still holds the KV pages: re-send them to a
			// surviving sink, charged on the source's link again.
			bytes := cfg.Model.KVBytesPerToken() * float64(h.req.PromptLen)
			done := link.transfer(h.src, now, bytes)
			t := nodes[tgt]
			t.pending = append(t.pending, handoff{req: h.req, src: h.src, deliverAt: done})
			t.handRecv++
			fe.rerouted++
			fe.cRerouted.Inc()
			continue
		}
		// No surviving sink (or the source link is partitioned): the
		// prefill must be recomputed from the prompt.
		fe.recomputed++
		fe.cRecomputed.Inc()
		lost = append(lost, h.req)
	}
	n.pending = n.pending[:0]
	n.handIdx = 0
	for _, r := range lost {
		if r == nil || r.Done {
			continue
		}
		fe.rt.CrashLost(r.TraceID, now, self)
		fe.scheduleRetry(now, r, n.class)
	}
	fe.reg.Emit(now, "cluster", "node-harvest",
		telemetry.F("machine", n.name), telemetry.Ff("lost", float64(len(lost))))
}

// scheduleRetry resets a crashed request and queues it for re-dispatch
// after a capped exponential backoff with deterministic jitter. A
// request past its retry budget is failed outright — an outcome, not
// an error, and counted as such.
func (fe *faultEngine) scheduleRetry(now float64, r *serve.Request, class int) {
	attempt := fe.attempts[r] + 1
	if attempt > fe.cfg.RetryBudget {
		r.Done = true
		fe.failed++
		fe.cFailed.Inc()
		fe.rt.Failed(r.TraceID, now)
		return
	}
	fe.attempts[r] = attempt
	backoff := fe.cfg.BackoffBaseS * math.Pow(2, float64(attempt-1))
	if backoff > fe.cfg.BackoffCapS {
		backoff = fe.cfg.BackoffCapS
	}
	// The jitter stream is a pure function of (seed, class, ID,
	// attempt): no shared generator, so neither worker width nor
	// harvest order can perturb it (DESIGN.md §10).
	u := rng.DeriveUniform(fe.seed, 0x8e77, uint64(class), uint64(r.ID), uint64(attempt))
	backoff *= 1 + fe.cfg.JitterFrac*(2*u-1)
	r.ResetForRetry()
	fe.retried++
	fe.cRetries.Inc()
	fe.retryq = append(fe.retryq, retryEntry{req: r, class: class, at: now + backoff, attempt: attempt})
}

// dispatchDue re-routes every retry whose backoff has elapsed through
// the balancer, in deterministic (at, class, ID, attempt) order.
// Classes with no routable machine keep their entries queued — total
// outages defer retries rather than consuming budget.
func (fe *faultEngine) dispatchDue(now float64, nodes []*node, bal *balancer) {
	if len(fe.retryq) == 0 {
		return
	}
	// Insertion sort: produces the same stable order sort.SliceStable
	// did (strict-less swaps never reorder equals) without its
	// reflect-based swapper allocations — the queue is short and
	// near-sorted, so this is also the faster shape.
	for i := 1; i < len(fe.retryq); i++ {
		for j := i; j > 0 && retryBefore(fe.retryq[j], fe.retryq[j-1]); j-- {
			fe.retryq[j], fe.retryq[j-1] = fe.retryq[j-1], fe.retryq[j]
		}
	}
	routable := fe.routable[:0]
	keep := fe.retryq[:0]
	for _, e := range fe.retryq {
		if e.at > now {
			keep = append(keep, e)
			continue
		}
		routable = routableNodes(nodes, e.class, routable[:0])
		if len(routable) == 0 {
			keep = append(keep, e)
			continue
		}
		i := bal.pick(e.class, nodes, routable)
		nodes[i].inbox = append(nodes[i].inbox, e.req)
		nodes[i].redispatched++
		fe.redispatched++
		fe.cRedispatched.Inc()
		fe.rt.Redispatched(e.req.TraceID, now, i)
		if fe.trace != nil {
			// Guarded so the untraced hot path skips the args map.
			fe.trace.Instant("redispatch", "fleet", telemetry.PIDFleet, i, now,
				map[string]float64{"request": float64(e.req.ID), "attempt": float64(e.attempt)})
		}
	}
	fe.routable = routable
	fe.retryq = keep
}

// retryBefore is dispatchDue's deterministic (at, class, ID, attempt)
// dispatch order.
func retryBefore(a, b retryEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.req.ID != b.req.ID {
		return a.req.ID < b.req.ID
	}
	return a.attempt < b.attempt
}

// unhealthy reports whether the node is in an outage state: dead
// (Suspect, Down) or rebooting (Recovering).
func (n *node) unhealthy() bool {
	return n.state == stateSuspect || n.state == stateDown || n.state == stateRecovering
}

// dead reports whether the machine is off the power rail entirely:
// Suspect and Down machines step nothing and burn nothing.
func (n *node) dead() bool {
	return n.state == stateSuspect || n.state == stateDown
}
