package cluster

import (
	"math"

	"aum/internal/vcfg"
)

// AutoscaleConfig parameterizes the AUV-aware autoscaler. Fleet
// utilization is the offered request rate over the summed *profiled
// request capacity* (the per-machine AUV statistic) of powered
// machines — so the scaler sizes the fleet in the same currency the
// balancer routes in. Machines activate from the standby pool when
// utilization holds above HighUtil and drain when it holds below
// LowUtil. Warm-up cost is explicit: an activated machine burns power
// for WarmupDelayS before the balancer may route to it, so flapping is
// penalized in the energy account, and the watermark gap plus
// HoldBarriers hysteresis keeps decisions out of the noise.
type AutoscaleConfig struct {
	// MinActive floors the number of powered machines (default 1).
	MinActive int
	// HighUtil and LowUtil are the scale-up / scale-down watermarks on
	// fleet utilization (defaults 0.85 and 0.45).
	HighUtil float64
	LowUtil  float64
	// HoldBarriers is how many consecutive tick barriers a watermark
	// must stay breached before the scaler acts (default 4).
	HoldBarriers int
	// WarmupDelayS is the activation lead time — model load and cache
	// warm-up — during which the machine is powered but not routable
	// (default 2 s).
	WarmupDelayS float64
}

func (a AutoscaleConfig) withDefaults() (AutoscaleConfig, error) {
	const pkg = "cluster"
	if a.MinActive == 0 {
		a.MinActive = 1
	}
	if a.MinActive < 1 {
		return a, vcfg.Bad(pkg, "Config.Autoscale.MinActive", a.MinActive, ">= 1 (0 selects the default of 1)")
	}
	if a.HighUtil == 0 {
		a.HighUtil = 0.85
	}
	if a.LowUtil == 0 {
		a.LowUtil = 0.45
	}
	if a.HighUtil <= 0 || a.HighUtil > 2 {
		return a, vcfg.Bad(pkg, "Config.Autoscale.HighUtil", a.HighUtil, "in (0, 2] (0 selects the 0.85 default)")
	}
	if a.LowUtil <= 0 || a.LowUtil >= a.HighUtil {
		return a, vcfg.Bad(pkg, "Config.Autoscale.LowUtil", a.LowUtil, "in (0, HighUtil) (0 selects the 0.45 default)")
	}
	if a.HoldBarriers == 0 {
		a.HoldBarriers = 4
	}
	if a.HoldBarriers < 1 {
		return a, vcfg.Bad(pkg, "Config.Autoscale.HoldBarriers", a.HoldBarriers, ">= 1 (0 selects the default of 4)")
	}
	if a.WarmupDelayS == 0 {
		a.WarmupDelayS = 2
	}
	if a.WarmupDelayS < 0 {
		return a, vcfg.Bad(pkg, "Config.Autoscale.WarmupDelayS", a.WarmupDelayS, ">= 0 (0 selects the 2 s default)")
	}
	return a, nil
}

// ScaleEvent is one autoscaler state transition, in fleet time.
type ScaleEvent struct {
	At      float64
	Machine string
	Action  string // warmup | undrain | active | drain | offline
}

// autoscaler carries the watermark streaks between barriers.
type autoscaler struct {
	cfg      AutoscaleConfig
	hiStreak int
	loStreak int
}

// observe runs one barrier's scaling decision. Activation prefers a
// draining machine (already warm) and otherwise the highest-capacity
// standby; draining targets the lowest-capacity active machine, so
// the fleet sheds its least efficient capacity first. Ties break on
// the lowest index — the choice is deterministic.
func (a *autoscaler) observe(now, offered float64, nodes []*node, events *[]ScaleEvent) {
	var capacity float64
	powered := 0
	for _, n := range nodes {
		if n.state == stateActive || n.state == stateWarming {
			capacity += n.capacity
			powered++
		}
	}
	util := math.Inf(1)
	if capacity > 0 {
		util = offered / capacity
	}
	if util > a.cfg.HighUtil {
		a.hiStreak++
	} else {
		a.hiStreak = 0
	}
	if util < a.cfg.LowUtil {
		a.loStreak++
	} else {
		a.loStreak = 0
	}
	if a.hiStreak >= a.cfg.HoldBarriers {
		a.hiStreak = 0
		if d := firstDraining(nodes); d != nil {
			d.state = stateActive
			*events = append(*events, ScaleEvent{At: now, Machine: d.name, Action: "undrain"})
		} else if s := bestStandby(nodes); s != nil {
			s.state = stateWarming
			s.activeAt = now + a.cfg.WarmupDelayS
			*events = append(*events, ScaleEvent{At: now, Machine: s.name, Action: "warmup"})
		}
	}
	if a.loStreak >= a.cfg.HoldBarriers && powered > a.cfg.MinActive {
		a.loStreak = 0
		if w := worstActive(nodes); w != nil {
			w.state = stateDraining
			*events = append(*events, ScaleEvent{At: now, Machine: w.name, Action: "drain"})
		}
	}
}

func firstDraining(nodes []*node) *node {
	for _, n := range nodes {
		if n.state == stateDraining {
			return n
		}
	}
	return nil
}

func bestStandby(nodes []*node) *node {
	var best *node
	for _, n := range nodes {
		if n.state == stateStandby && (best == nil || n.capacity > best.capacity) {
			best = n
		}
	}
	return best
}

func worstActive(nodes []*node) *node {
	var worst *node
	for _, n := range nodes {
		if n.state == stateActive && (worst == nil || n.capacity < worst.capacity) {
			worst = n
		}
	}
	return worst
}
