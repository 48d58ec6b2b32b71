// Command perfbench is the repository's benchmark: it runs one named
// workload at a given seed through the aum facade (or a layer's
// exported API where the facade does not reach), checks that the
// simulated outputs are correct, and prints every metric by name with
// its unit as the last line of standard output.
//
//	bash perfbench/run.sh --workload fleet-sparse --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the
// workload with spans and a telemetry registry attached and reports
// the per-layer metrics instead, writing the spans to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	run  func(c *runCtx) error
}

var workloads = []workload{
	{Name: "colo-paper", Why: "Fig. 14 + Fig. 15 co-location matrix: the AUV profiler, AUM controller and rdt do most of the work", run: runColoPaper},
	{Name: "fleet-loaded", Why: "60 busy machines with routing, a surge, autoscaling and crashes: full machine steps and serve dominate", run: runFleetLoaded},
	{Name: "fleet-sparse", Why: "501 nearly idle machines: quiescent replay dominates and serve and routing do almost nothing", run: runFleetSparse},
	{Name: "gateway-stream", Why: "open-loop streaming completions over HTTP/2 into a live time-warped fleet: gateway, reqtrace and net/http", run: runGatewayStream},
}

// maxWorkers caps every worker pool and GOMAXPROCS so the load stays
// within a small shared host and numbers compare across hosts.
const maxWorkers = 2

// runCtx carries one run's inputs and collects its outputs.
type runCtx struct {
	seed    uint64
	seconds float64
	workers int
	rec     *recorder // nil when untraced
	traced  bool

	metrics   map[string]float64
	attempted int
	failed    int
}

// op counts one attempted operation or correctness check; a false ok
// counts it as failed and reports why on standard error.
func (c *runCtx) op(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

func (c *runCtx) set(name string, v float64) { c.metrics[name] = v }

// setDist reports a distribution under the percentile rule.
func (c *runCtx) setDist(base string, xs []float64) {
	d := summarize(xs)
	c.set(base+"_p50", d.P50)
	c.set(base+"_tail", d.Tail)
	c.set(base+"_tail_pct", d.TailPct)
	c.set(base+"_n", float64(d.N))
}

// elapsed reports whether the timed phase that started at t0 has used
// its budget.
func (c *runCtx) elapsed(t0 time.Time) bool {
	return time.Since(t0).Seconds() >= c.seconds
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := checkGoldensPresent(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		os.Exit(2)
	}

	if *seed == 0 {
		*seed = goldenSeed // every simulator layer reads seed 0 as 42
	}
	workers := min(runtime.NumCPU(), maxWorkers)
	runtime.GOMAXPROCS(workers)
	c := &runCtx{seed: *seed, seconds: *seconds, workers: workers, traced: *trace == 1,
		metrics: map[string]float64{}}
	if c.traced {
		c.rec = newRecorder()
		// A layer this workload does not exercise reads 0.
		for _, m := range perLayer {
			c.set(m.Name, 0)
		}
	}
	if err := w.run(c); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}

	want := endToEnd
	if c.traced {
		if err := runLadder(c); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: layer ladder: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.Name, *seed))
		err := os.MkdirAll(*out, 0o755)
		var spans []span
		if err == nil {
			spans, err = c.rec.finish(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		c.set("span.pass_self_share", selfShare(spans, "pass"))
		want = perLayer
	}

	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metricOut{}}
	for _, m := range want {
		v, ok := c.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured (got %v)\n", m.Name, v)
			os.Exit(1)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
