package main

import (
	"fmt"
	"sync"

	"aum"
	"aum/internal/experiments"
)

// quickRunHorizonS is the simulated length of one co-location run at
// quick fidelity, as the experiments run it. A pass that disagreed
// would fail the cross-check against the lab's own results.
const quickRunHorizonS = 20

// coloSetups is how many times an untraced colo-paper run profiles the
// 15 AUV models; setup_s is their median.
const coloSetups = 2

// profileCombo identifies one AUV model.
type profileCombo struct {
	plat aum.Platform
	scen aum.Scenario
	be   aum.WorkloadProfile
}

// profileCombos lists the AUV models Fig. 14 and Fig. 15 need: GenA
// under every scenario and co-runner, GenB and GenC under every
// scenario with SPECjbb.
func profileCombos() []profileCombo {
	var out []profileCombo
	jbb, _ := aum.CoRunnerByName("SPECjbb")
	for _, p := range aum.Platforms() {
		for _, s := range aum.Scenarios() {
			if p.Name == "GenA" {
				for _, be := range aum.CoRunners() {
					out = append(out, profileCombo{p, s, be})
				}
				continue
			}
			out = append(out, profileCombo{p, s, jbb})
		}
	}
	return out
}

// coloSpecs lists the distinct co-location runs of Fig. 14 and Fig. 15
// in the order the experiments first request them. ALL-AU runs leave
// the co-runner unscheduled, as the experiments do.
func coloSpecs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	seen := map[string]bool{}
	add := func(p aum.Platform, scheme string, s aum.Scenario, be *aum.WorkloadProfile) {
		if scheme == "ALL-AU" {
			be = nil
		}
		key := fmt.Sprintf("%s/%s/%s", p.Name, scheme, s.Name)
		if be != nil {
			key += "/" + be.Name
		}
		if !seen[key] {
			seen[key] = true
			specs = append(specs, experiments.RunSpec{Plat: p, Model: aum.Llama2_7B(), Scheme: scheme, Scen: s, BE: be})
		}
	}
	for _, scheme := range experiments.SchemeNames {
		for _, s := range aum.Scenarios() {
			for _, be := range aum.CoRunners() {
				be := be
				add(aum.GenA(), scheme, s, &be)
			}
		}
	}
	jbb, _ := aum.CoRunnerByName("SPECjbb")
	for _, p := range aum.Platforms() {
		for _, scheme := range []string{"ALL-AU", "AUM"} {
			for _, s := range aum.Scenarios() {
				add(p, scheme, s, &jbb)
			}
		}
	}
	return specs
}

// coloManager builds a fresh manager for one run, as the lab does:
// the static baselines need no model; the AU-aware schemes use the AUV
// model profiled for the run's platform, scenario and co-runner
// (SPECjbb when the run is exclusive).
func coloManager(lab *aum.Lab, spec experiments.RunSpec, opt aum.ExperimentOptions) (aum.Manager, error) {
	switch spec.Scheme {
	case "ALL-AU":
		return aum.NewExclusive(), nil
	case "SMT-AU":
		return aum.NewSMTSharing(), nil
	case "RP-AU":
		return aum.NewPartitioning(), nil
	}
	be, _ := aum.CoRunnerByName("SPECjbb")
	if spec.BE != nil {
		be = *spec.BE
	}
	m, err := lab.Model(spec.Plat, spec.Model, spec.Scen, be, opt)
	if err != nil {
		return nil, err
	}
	switch spec.Scheme {
	case "AUM":
		return aum.NewAUM(m, aum.ControllerOptions{})
	case "AU-UP":
		return aum.NewUsageOnly(m, aum.ControllerOptions{})
	case "AU-FI":
		return aum.NewFrequencyOnly(m, aum.ControllerOptions{})
	case "AU-RB":
		return aum.NewBoundOnly(m, aum.ControllerOptions{})
	}
	return nil, fmt.Errorf("unknown scheme %q", spec.Scheme)
}

// profileAll is colo-paper's set-up: a fresh lab profiles the 15 AUV
// models across the worker pool.
func profileAll(c *runCtx, opt aum.ExperimentOptions) (*aum.Lab, error) {
	root := c.rec.begin("setup", 0, 0)
	defer c.rec.end(root)
	lab := aum.NewLab()
	lab.SetWorkers(c.workers)
	combos := profileCombos()
	c.attempted += len(combos)
	err := lab.Parallel(len(combos), func(i int) error {
		id := c.rec.begin("core.profile", root, 0)
		defer c.rec.end(id)
		cb := combos[i]
		_, err := lab.Model(cb.plat, aum.Llama2_7B(), cb.scen, cb.be, opt)
		return err
	})
	return lab, err
}

// machineCounters sums the machine step counters of traced runs.
type machineCounters struct {
	mu            sync.Mutex
	steps, ffStep uint64
}

func (m *machineCounters) add(reg *aum.TelemetryRegistry) {
	snap := reg.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps += counterSum(snap, "aum_machine_steps_total")
	m.ffStep += counterSum(snap, "aum_machine_ff_steps_total")
}

func (m *machineCounters) replayShare() float64 {
	if m.steps == 0 {
		return 0
	}
	return float64(m.ffStep) / float64(m.steps)
}

// coloPass runs every co-location run of the matrix once across the
// lab's worker pool, each with a fresh manager. With counters set, each
// run gets its own telemetry registry.
func coloPass(c *runCtx, lab *aum.Lab, specs []experiments.RunSpec, opt aum.ExperimentOptions, counters *machineCounters) ([]aum.RunResult, error) {
	pass := c.rec.begin("pass", 0, 0)
	defer c.rec.end(pass)
	out := make([]aum.RunResult, len(specs))
	c.attempted += len(specs)
	err := lab.Parallel(len(specs), func(i int) error {
		spec := specs[i]
		mgr, err := coloManager(lab, spec, opt)
		if err != nil {
			return err
		}
		cfg := aum.RunConfig{Plat: spec.Plat, Model: spec.Model, Scen: spec.Scen, BE: spec.BE,
			Manager: mgr, HorizonS: quickRunHorizonS, Seed: opt.Seed}
		if counters != nil {
			cfg.Telemetry = aum.NewTelemetryRegistry()
		}
		id := c.rec.begin("colo.run", pass, 0)
		out[i], err = aum.Run(cfg)
		c.rec.end(id)
		if counters != nil {
			counters.add(cfg.Telemetry)
		}
		return err
	})
	return out, err
}

func runColoPaper(c *runCtx) error {
	opt := aum.ExperimentOptions{Quick: true, Seed: c.seed}
	specs := coloSpecs()

	setups := coloSetups
	if c.traced {
		setups = 1
	}
	var lab *aum.Lab
	var setupS []float64
	for i := 0; i < setups; i++ {
		m := startMeter()
		var err error
		if lab, err = profileAll(c, opt); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		setupS = append(setupS, m.stop().wallS)
	}

	// The experiments themselves, on the profiled lab (untimed): at the
	// golden seed their tables must match the snapshots, and at every
	// seed the benchmark's own passes must reproduce the runs they made.
	for _, id := range []string{"fig14", "fig15"} {
		e, err := aum.ExperimentByID(id)
		if err != nil {
			return err
		}
		tbl, err := e.Run(lab, opt)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if c.seed == goldenSeed {
			ok, err := goldenEqual(tbl)
			c.op(err == nil && ok, "%s differs from its golden table (err=%v)", id, err)
		}
	}
	labRuns := make([]aum.RunResult, len(specs))
	for i, spec := range specs {
		var err error
		if labRuns[i], err = lab.Run(spec, opt); err != nil {
			return fmt.Errorf("lab run: %w", err)
		}
	}
	want, err := digest(labRuns)
	if err != nil {
		return err
	}

	simS := float64(len(specs)) * quickRunHorizonS
	var counters *machineCounters
	unit := func() (sample, error) {
		m := startMeter()
		res, err := coloPass(c, lab, specs, opt, counters)
		s := m.stop()
		if err != nil {
			return s, fmt.Errorf("co-location pass: %w", err)
		}
		sum, err := digest(res)
		c.op(err == nil && sum == want, "co-location pass differs from the experiments' runs (err=%v)", err)
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
	counters = &machineCounters{}
	samples, err := c.repeat(unit)
	if err != nil {
		return err
	}
	c.setDist("core.profile_s", c.rec.durations("core.profile"))
	c.setDist("colo.run_ms", scale(c.rec.durations("colo.run"), 1e3))
	c.set("machine.replay_share", counters.replayShare())
	reportTraced(c, samples, ref, simS)
	return nil
}
