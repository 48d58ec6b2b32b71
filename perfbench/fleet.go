package main

import (
	"fmt"
	"time"

	"aum"
)

// Each fleet run lasts about a second of wall time (fleet-loaded by its
// machine count, fleet-sparse by its horizon), so that one timed phase
// holds many: the host's speed wanders by tens of percent over seconds,
// and the median of many short runs follows it less than the median of
// two or three long ones.
const (
	// loadedHorizonS is the simulated length of one fleet-loaded run.
	loadedHorizonS = 60
	// sparseHorizonS is the simulated length of one fleet-sparse run;
	// its machines settle into quiescent replay within a few seconds.
	sparseHorizonS = 12
)

// fleetSetups is how many fleet builds a run times before its first
// fleet run, fleetSetupGap apart so that a few milliseconds of building
// sample the host over a stretch; every fleet run builds one more.
// setup_s is their median.
const (
	fleetSetups   = 21
	fleetSetupGap = 5 * time.Millisecond
)

// loadedActive is fleet-loaded's number of active machines, a third of
// each platform; it has one standby and one crash per 15 of them.
const loadedActive = 60

// loadedRatePerS puts fleet-loaded's active machines at about 75% of
// their summed AUV request capacity (the autoscaler's utilization),
// 0.65 requests/s per machine.
const loadedRatePerS = 0.65 * loadedActive

// fleetLoaded: 60 active machines, a third each of GenA, GenB and
// GenC, plus 4 GenA standbys, under AUV-aware routing with a 1.3x
// surge over the middle third, the autoscaler on, and a seeded crash
// storm of 4 outages.
func fleetLoaded(seed uint64, workers int) aum.FleetConfig {
	const active, standby, crashes = loadedActive, loadedActive / 15, loadedActive / 15
	const h = loadedHorizonS
	plats := aum.Platforms()
	var ms []aum.MachineSpec
	for i := 0; i < active; i++ {
		ms = append(ms, aum.MachineSpec{Plat: plats[i%len(plats)], Mgr: aum.NewExclusive()})
	}
	for i := 0; i < standby; i++ {
		ms = append(ms, aum.MachineSpec{Plat: aum.GenA(), Mgr: aum.NewExclusive(), Standby: true})
	}
	return aum.FleetConfig{
		Machines: ms, Policy: aum.AUVAware, HorizonS: h, Seed: seed,
		RatePerS: loadedRatePerS,
		QPS: []aum.RatePoint{
			{At: h / 3, RatePerS: 1.3 * loadedRatePerS},
			{At: 2 * h / 3, RatePerS: loadedRatePerS},
		},
		Autoscale: &aum.AutoscaleConfig{},
		Faults: &aum.FaultConfig{
			Schedule: aum.CrashStorm(active, crashes, h, h/8, seed),
		},
		Workers: workers,
	}
}

// fleetSparse: 501 machines, a third of each platform, sharing
// 2 requests/s, so most machines never see a request.
func fleetSparse(seed uint64, workers int) aum.FleetConfig {
	plats := aum.Platforms()
	var ms []aum.MachineSpec
	for i := 0; i < 501; i++ {
		ms = append(ms, aum.MachineSpec{Plat: plats[i%len(plats)], Mgr: aum.NewExclusive()})
	}
	return aum.FleetConfig{Machines: ms, HorizonS: sparseHorizonS, Seed: seed, RatePerS: 2, Workers: workers}
}

func runFleetLoaded(c *runCtx) error { return runFleet(c, fleetLoaded) }
func runFleetSparse(c *runCtx) error { return runFleet(c, fleetSparse) }

// tracedFleet holds the observers a traced fleet run attaches.
type tracedFleet struct {
	reg    *aum.TelemetryRegistry
	tracer *aum.RequestTracer
}

// buildFleet times one fleet build (the set-up).
func buildFleet(c *runCtx, cfg aum.FleetConfig) (*aum.FleetSession, float64, error) {
	id := c.rec.begin("setup", 0, 0)
	m := startMeter()
	sess, err := aum.NewFleetSession(cfg)
	s := m.stop()
	c.rec.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("building fleet: %w", err)
	}
	return sess, s.wallS, nil
}

// stepFleet runs a built fleet through its horizon, one span per
// barrier, and closes its accounting.
func stepFleet(c *runCtx, sess *aum.FleetSession) (aum.FleetResult, error) {
	pass := c.rec.begin("pass", 0, 0)
	defer c.rec.end(pass)
	cfg := sess.Config()
	barriers := int(cfg.HorizonS/cfg.BarrierS + 0.5)
	for i := 0; i < barriers; i++ {
		id := c.rec.begin("cluster.barrier", pass, 0)
		err := sess.Step()
		c.rec.end(id)
		if err != nil {
			return aum.FleetResult{}, fmt.Errorf("fleet barrier %d: %w", i, err)
		}
	}
	return sess.Finish()
}

func runFleet(c *runCtx, build func(seed uint64, workers int) aum.FleetConfig) error {
	if c.seed == goldenSeed {
		c.checkExperimentGolden("fleet")
		c.checkExperimentGolden("fleetchaos")
	}
	cfg := build(c.seed, c.workers)
	simS := float64(len(cfg.Machines)) * cfg.HorizonS

	var setupS []float64
	newSession := func(obs *tracedFleet) (*aum.FleetSession, error) {
		cfg := build(c.seed, c.workers)
		if obs != nil {
			cfg.Telemetry, cfg.ReqTrace = obs.reg, obs.tracer
		}
		sess, wall, err := buildFleet(c, cfg)
		setupS = append(setupS, wall)
		return sess, err
	}
	for len(setupS) < fleetSetups {
		if _, err := newSession(nil); err != nil {
			return err
		}
		time.Sleep(fleetSetupGap)
	}

	var digests digestLog
	var obs *tracedFleet
	unit := func() (sample, error) {
		sess, err := newSession(obs)
		if err != nil {
			return sample{}, err
		}
		c.attempted++
		m := startMeter()
		res, err := stepFleet(c, sess)
		s := m.stop()
		if err != nil {
			return s, err
		}
		sum, err := digest(res)
		c.op(err == nil && digests.add(sum), "fleet result differs from the first repetition (err=%v)", err)
		if obs != nil {
			checkConservation(c, obs, res)
		}
		return s, nil
	}
	if !c.traced {
		samples, err := c.repeat(unit)
		if err != nil {
			return err
		}
		c.set("setup_s", median(setupS))
		reportOffline(c, samples, simS)
		return nil
	}
	ref, err := c.untracedUnit(unit)
	if err != nil {
		return err
	}
	var samples []sample
	var steps, ffSteps, elided uint64
	for t0 := time.Now(); len(samples) < 1 || !c.elapsed(t0); {
		obs = &tracedFleet{reg: aum.NewTelemetryRegistry(), tracer: aum.NewRequestTracer(aum.ReqTraceConfig{})}
		s, err := unit()
		if err != nil {
			return err
		}
		samples = append(samples, s)
		snap := obs.reg.Snapshot()
		steps += counterSum(snap, "aum_machine_steps_total")
		ffSteps += counterSum(snap, "aum_machine_ff_steps_total")
		elided += counterSum(snap, "aum_cluster_barriers_elided_total")
	}
	c.setDist("cluster.barrier_us", scale(c.rec.durations("cluster.barrier"), 1e6))
	c.set("cluster.barriers_elided", float64(elided))
	if steps > 0 {
		c.set("machine.replay_share", float64(ffSteps)/float64(steps))
	}
	reportTraced(c, samples, ref, simS)
	return nil
}

// checkConservation checks that the tracer saw every routed arrival of
// a traced fleet run and that each ended in exactly one outcome or is
// still in flight. Unrouted arrivals never reach the tracer; the fleet
// result counts them.
func checkConservation(c *runCtx, obs *tracedFleet, res aum.FleetResult) {
	rep := obs.tracer.Report()
	routed := counterSum(obs.reg.Snapshot(), "aum_fleet_requests_routed_total")
	outcomes := rep.Completed + rep.Shed + rep.TimedOut + rep.Dropped + rep.Failed + rep.InFlight
	c.op(uint64(rep.Sampled) == routed && rep.Sampled == outcomes,
		"arrivals not conserved: routed %d, traced %d, outcomes %d (done %d, shed %d, timed out %d, dropped %d, failed %d, in flight %d), unrouted %d",
		routed, rep.Sampled, outcomes, rep.Completed, rep.Shed, rep.TimedOut, rep.Dropped, rep.Failed, rep.InFlight, res.Unrouted)
}
