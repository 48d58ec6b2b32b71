package main

import (
	"context"
	"time"

	"aum/internal/cluster"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/membw"
	"aum/internal/platform"
	"aum/internal/power"
	"aum/internal/reqtrace"
	"aum/internal/rng"
	"aum/internal/runner"
	wl "aum/internal/workload"
)

// The layer ladder: one micro-loop per layer, each calling a single
// exported function on fixed inputs, run at the end of every traced
// run. Each figure is the median over ladderBatches batches of the
// mean time per call, a batch lasting at least ladderBatch.
const (
	ladderBatches = 15
	ladderBatch   = 20 * time.Millisecond
)

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkCost  llm.IterationCost
	sinkSol   power.Solution
	sinkGrant []float64
	sinkMap   []uint64
)

// rung is one micro-loop: each call of f makes per calls of the
// measured function.
type rung struct {
	name  string
	f     func()
	per   float64
	iters int
	ns    []float64
}

// climb sizes each rung's batch to last ladderBatch, then times the
// batches of all rungs interleaved, so that every rung's median samples
// the host across the whole ladder rather than one stretch of it.
func climb(c *runCtx, rungs []*rung) {
	for _, r := range rungs {
		for r.iters = 1; ; r.iters *= 2 {
			t0 := time.Now()
			for i := 0; i < r.iters; i++ {
				r.f()
			}
			if time.Since(t0) >= ladderBatch {
				break
			}
		}
	}
	for b := 0; b < ladderBatches; b++ {
		for _, r := range rungs {
			t0 := time.Now()
			for i := 0; i < r.iters; i++ {
				r.f()
			}
			r.ns = append(r.ns, float64(time.Since(t0).Nanoseconds())/float64(r.iters)/r.per)
		}
	}
	for _, r := range rungs {
		c.set(r.name, median(r.ns))
	}
}

// ladderMachine is the three-task co-location every experiment steps.
func ladderMachine() (*machine.Machine, error) {
	m := machine.New(platform.GenA())
	for i, p := range []wl.Profile{wl.SPECjbb(), wl.OLAP(), wl.Compute()} {
		lo := i * 32
		if _, err := m.AddTask(wl.New(p, uint64(i+1)), machine.Placement{
			CoreLo: lo, CoreHi: lo + 31, SMTSlot: 0, COS: i,
		}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func runLadder(c *runCtx) error {
	full, err := ladderMachine()
	if err != nil {
		return err
	}

	// A burst-free task on every core quiesces, so StepN replays.
	plat := platform.GenA()
	idle := machine.New(plat)
	if _, err := idle.AddTask(wl.New(wl.Compute(), 7), machine.Placement{
		CoreLo: 0, CoreHi: plat.Cores - 1, SMTSlot: 0,
	}); err != nil {
		return err
	}
	const replayK = 10

	gov := power.NewGovernor(plat)
	loads := []power.RegionLoad{
		{Cores: 53, Class: power.AMXHeavy, Util: 0.9},
		{Cores: 29, Class: power.AVXHeavy, Util: 0.6},
		{Cores: 14, Class: power.Scalar, Util: 0.9},
	}

	dem := []float64{300, 40, 12, 5}
	wts := []float64{29, 53, 14, 4}
	caps := []float64{233, 233, 120, 40}

	plan := llm.Llama2_7B().PlanDecode(16, 600)
	env := machine.Env{Plat: plat, Cores: 29, GHz: 3.1, ComputeShare: 1,
		LLCMB: plat.TotalLLCMB(), L2MB: 58, BWGBs: plat.MemBWGBs * 0.8}

	const items = 256
	opt := runner.Options{Seed: 1, Workers: c.workers}
	var mapErr error

	// A live sampled request absorbing decode-token events: the
	// marginal cost every traced decode iteration pays.
	rt := reqtrace.New(reqtrace.Config{})
	tid := reqtrace.MakeTraceID(0, 1)
	rt.Submitted(tid, 0, 0)
	rt.PrefillStart(tid, 0.1, 0)
	rt.FirstToken(tid, 0.2, true, 0, 0, 0)

	climb(c, []*rung{
		{name: "machine.step_ns", per: 1, f: func() { full.Step(1e-3) }},
		{name: "machine.replay_ns", per: replayK, f: func() { idle.StepN(1e-3, replayK) }},
		{name: "power.solve_ns", per: 1, f: func() { sinkSol = gov.Solve(loads, 0) }},
		{name: "membw.arbitrate_ns", per: 1, f: func() { sinkGrant = membw.MaxMin(233.8, dem, wts, caps) }},
		{name: "llm.cost_ns", per: 1, f: func() { sinkCost = llm.CostIteration(plan, env) }},
		{name: "cluster.failover_ns", per: 1, f: cluster.FailoverBenchLoop()},
		{name: "runner.dispatch_ns", per: items, f: func() {
			sinkMap, mapErr = runner.Map(context.Background(), items, opt,
				func(_ context.Context, j int, r *rng.Stream) (uint64, error) { return r.Uint64() + uint64(j), nil })
		}},
		{name: "reqtrace.token_ns", per: 1, f: func() { rt.Token(tid, 0.3, 0.1, true, 0.05, 0, 0) }},
	})
	return mapErr
}
