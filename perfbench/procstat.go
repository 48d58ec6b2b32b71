package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssMB returns the process's current resident set size in MiB.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssSampleEvery is how often the timed phase's resident set size is
// sampled.
const rssSampleEvery = 10 * time.Millisecond

// rssPeak samples the resident set size until stopped and keeps the
// highest reading. It starts by returning freed memory to the OS, so
// that it sees only the pages the measured work touches: the
// whole-process high-water mark moved by tens of percent from run to
// run with the garbage collector's timing during set-up.
type rssPeak struct {
	stop, done chan struct{}
	peak       float64
	err        error
}

func startRSSPeak() *rssPeak {
	debug.FreeOSMemory()
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			v, err := rssMB()
			if err != nil {
				r.err = err
				return
			}
			r.peak = max(r.peak, v)
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the peak in MiB.
func (r *rssPeak) finish() (float64, error) {
	close(r.stop)
	<-r.done
	return r.peak, r.err
}

// runtimeStats reads the heap bytes allocated so far, and the
// runtime's estimates of the CPU seconds spent in garbage collection
// and in all non-idle work (the two are comparable with each other,
// not with getrusage).
func runtimeStats() (allocBytes, gcCPUS, busyCPUS float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64() - s[3].Value.Float64()
}

// meter measures one unit of work: wall and CPU seconds, heap bytes
// allocated, and the runtime's GC and busy CPU estimates.
type meter struct {
	wall0                 time.Time
	cpu0                  float64
	alloc0, gcCPU0, busy0 float64
}

// startMeter collects garbage first, so that every measured unit
// starts from the same heap state.
func startMeter() meter {
	runtime.GC()
	m := meter{wall0: time.Now(), cpu0: cpuSeconds()}
	m.alloc0, m.gcCPU0, m.busy0 = runtimeStats()
	return m
}

// sample is what was measured over one unit.
type sample struct {
	wallS, cpuS, allocMB, gcCPUS, busyCPUS float64
	peakRSSMB                              float64
}

func (m meter) stop() sample {
	s := sample{wallS: time.Since(m.wall0).Seconds(), cpuS: cpuSeconds() - m.cpu0}
	// The runtime folds its CPU estimates in at the end of each GC
	// cycle; one more cycle covers the unit to its end.
	runtime.GC()
	alloc, gc, busy := runtimeStats()
	s.allocMB = (alloc - m.alloc0) / (1 << 20)
	s.gcCPUS = gc - m.gcCPU0
	s.busyCPUS = busy - m.busy0
	return s
}
