package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"aum"
)

// repeat runs unit, a fixed amount of work, once as a warm-up and then
// until the timed phase has used its budget, and at least twice so that
// medians have two samples. The warm-up's checks count; its timings do
// not.
func (c *runCtx) repeat(unit func() (sample, error)) ([]sample, error) {
	if _, err := unit(); err != nil {
		return nil, err
	}
	var out []sample
	for t0 := time.Now(); len(out) < 2 || !c.elapsed(t0); {
		rss := startRSSPeak()
		s, err := unit()
		peak, rerr := rss.finish()
		if err != nil {
			return nil, err
		}
		if rerr != nil {
			return nil, fmt.Errorf("reading RSS: %w", rerr)
		}
		s.peakRSSMB = peak
		fmt.Fprintf(os.Stderr, "perfbench: unit %d: wall %.3fs cpu %.3fs peak RSS %.1fMB\n", len(out)+1, s.wallS, s.cpuS, s.peakRSSMB)
		out = append(out, s)
	}
	return out, nil
}

// untracedUnit runs one unit with span recording off: the reference
// the tracing overhead is taken against.
func (c *runCtx) untracedUnit(unit func() (sample, error)) (sample, error) {
	rec := c.rec
	c.rec = nil
	defer func() { c.rec = rec }()
	return unit()
}

// reportOffline sets the end-to-end metrics of an offline workload
// whose unit simulates simS machine-seconds, each the median over
// units.
func reportOffline(c *runCtx, samples []sample, simS float64) {
	var rate, cpu, rss []float64
	for _, s := range samples {
		rate = append(rate, simS/s.wallS)
		cpu = append(cpu, s.cpuS)
		rss = append(rss, s.peakRSSMB)
	}
	c.set("sim_s_per_s", median(rate))
	c.set("cpu_s", median(cpu))
	c.set("peak_rss_mb", median(rss))
}

// reportTraced sets the runtime and tracing-overhead metrics from the
// traced units and the untraced reference unit.
func reportTraced(c *runCtx, samples []sample, ref sample, simS float64) {
	var alloc, cpu []float64
	var gc, busy float64
	for _, s := range samples {
		alloc = append(alloc, s.allocMB/simS)
		cpu = append(cpu, s.cpuS)
		gc += s.gcCPUS
		busy += s.busyCPUS
	}
	c.set("runtime.alloc_mb_per_sim_s", median(alloc))
	c.set("runtime.gc_cpu_frac", gc/busy)
	c.set("telemetry.overhead_x", median(cpu)/ref.cpuS)
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// counterSum adds up a counter over every telemetry scope it was
// recorded in (scoped names carry a {scope="..."} label).
func counterSum(s aum.TelemetrySnapshot, name string) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name == name || strings.HasPrefix(c.Name, name+"{") {
			total += c.Value
		}
	}
	return total
}
