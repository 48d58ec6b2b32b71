package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aum"
)

// Gateway workload parameters. The fleet is the aumd -gateway
// topology; the rate sits well below the knee of a 2-core host (which
// lies between 800 and 1600 requests/s), so no request should be shed.
const (
	gatewayWarp     = 100
	gatewayRatePerS = 300
	// A gateway starts in about a millisecond, so one scheduling
	// hiccup of the host moves a single start by several times that.
	// setup_s is the median of many starts, spaced so that they sample
	// the host over a stretch rather than one instant.
	gatewaySetups   = 21
	gatewaySetupGap = 5 * time.Millisecond
	gatewayMachines = 4
	gatewayMaxQueue = 64
	gatewaySliceS   = 1.0 // wall slice over which cpu_s and sim_s_per_s are taken
	minPromptTokens = 32
	maxPromptTokens = 512
	minOutputTokens = 8
	maxOutputTokens = 48
	gatewayInflight = 512 // generator stalls (and runs late) beyond this many open requests
	// gatewayRequestTimeout fails a request the gateway never finishes,
	// so a stalled gateway ends the run instead of hanging it.
	gatewayRequestTimeout = 30 * time.Second
	ttftLimitSimS         = 0.250 // the chatbot scenario's TTFT SLO, simulated seconds
)

// loadReq is one scheduled completion request.
type loadReq struct {
	due  time.Duration // offset from the window start
	body []byte
}

// schedule derives the open-loop Poisson arrival times and the prompt
// and output lengths from the seed alone.
func schedule(seed uint64, rate, seconds float64) []loadReq {
	r := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908))
	var out []loadReq
	for t := r.ExpFloat64() / rate; t < seconds; t += r.ExpFloat64() / rate {
		prompt := minPromptTokens + r.IntN(maxPromptTokens-minPromptTokens+1)
		body, _ := json.Marshal(map[string]any{
			"messages":   []map[string]string{{"role": "user", "content": strings.Repeat("tok ", prompt)}},
			"stream":     true,
			"max_tokens": minOutputTokens + r.IntN(maxOutputTokens-minOutputTokens+1),
		})
		out = append(out, loadReq{due: time.Duration(t * float64(time.Second)), body: body})
	}
	return out
}

// reqStat is what the generator observed for one request.
type reqStat struct {
	late, ttft, lag float64 // seconds
	itl             []float64
	tokens          int
	ok              bool   // 200 with a well-formed stream
	problem         string // why ok is false
}

// liveGateway is a started gateway with its HTTP/2 server.
type liveGateway struct {
	g     *aum.Gateway
	reg   *aum.TelemetryRegistry
	srv   *http.Server
	url   string
	conns atomic.Int64
	done  chan struct{}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// startGateway builds the gateway, serves it over cleartext HTTP/2 on
// a loopback port and waits until it is ready. It returns the seconds
// that took.
func startGateway(seed uint64) (*liveGateway, float64, error) {
	runtime.GC()
	t0 := time.Now()
	platB, err := aum.PlatformByName("GenB")
	if err != nil {
		return nil, 0, err
	}
	reg := aum.NewTelemetryRegistry()
	g, err := aum.NewGateway(
		aum.WithGatewayTelemetry(reg),
		aum.WithGatewayFleet(aum.FleetConfig{
			Machines: []aum.MachineSpec{
				{Plat: aum.GenA(), Mgr: aum.NewExclusive()},
				{Plat: aum.GenA(), Mgr: aum.NewExclusive()},
				{Plat: platB, Mgr: aum.NewExclusive()},
				{Plat: platB, Mgr: aum.NewExclusive()},
			},
			Admission: aum.Admission{MaxQueue: gatewayMaxQueue},
			Seed:      seed,
		}),
		aum.WithWarpFactor(gatewayWarp),
	)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Stop()
		return nil, 0, err
	}
	lg := &liveGateway{g: g, reg: reg, url: "http://" + ln.Addr().String() + "/v1/chat/completions",
		done: make(chan struct{})}
	lg.srv = &http.Server{Handler: g.Handler(), Protocols: new(http.Protocols),
		HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 2 * gatewayInflight}}
	lg.srv.Protocols.SetHTTP1(true)
	lg.srv.Protocols.SetUnencryptedHTTP2(true)
	go func() {
		defer close(lg.done)
		lg.srv.Serve(countingListener{ln, &lg.conns})
	}()
	// Poll without sleeping: a timer's granularity would dominate a
	// set-up this short.
	for !g.Ready() {
		if time.Since(t0) > 10*time.Second {
			lg.stop()
			return nil, 0, errors.New("gateway not ready after 10 s")
		}
		runtime.Gosched()
	}
	return lg, time.Since(t0).Seconds(), nil
}

// stop closes the server, waits for it to exit and stops the fleet.
func (lg *liveGateway) stop() error {
	lg.srv.Close()
	<-lg.done
	_, err := lg.g.Stop()
	return err
}

// window is one measured stretch of open-loop load.
type window struct {
	stats    []reqStat
	cpuS     []float64 // per slice: CPU seconds per 1000 completed requests
	simRate  []float64 // per slice: simulated machine-seconds per wall second
	cpuTotal float64
	tokens   int
	wallS    float64
}

// drive sends the schedule to the gateway open-loop, multiplexed over
// HTTP/2. The server admits more concurrent streams than the generator
// ever holds open, so the transport has no reason to dial beyond its
// first connection; the window fails if it used more than workers.
// Each request is timed from when it was due; spans (when recording)
// cover each request, as a child of parent, its wait for the first
// token and its stream.
func drive(c *runCtx, lg *liveGateway, sched []loadReq, parent int) (*window, error) {
	tr := &http.Transport{MaxConnsPerHost: c.workers, Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	client := &http.Client{Transport: tr, Timeout: gatewayRequestTimeout}
	defer tr.CloseIdleConnections()

	lg.conns.Store(0)
	w := &window{stats: make([]reqStat, len(sched))}
	var completed atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, gatewayInflight)
	sliceStop := make(chan struct{})
	sliceDone := make(chan struct{})

	start := time.Now()
	// Slice sampler: per-second CPU and simulated progress.
	go func() {
		defer close(sliceDone)
		tick := time.NewTicker(time.Duration(gatewaySliceS * float64(time.Second)))
		defer tick.Stop()
		cpu0, done0, sim0, t0 := cpuSeconds(), completed.Load(), lg.g.Now(), time.Now()
		for first := true; ; first = false {
			select {
			case <-sliceStop:
				return
			case <-tick.C:
			}
			cpu1, done1, sim1, t1 := cpuSeconds(), completed.Load(), lg.g.Now(), time.Now()
			// The first slice includes the connection set-up; skip it.
			if !first && done1 > done0 {
				w.cpuS = append(w.cpuS, (cpu1-cpu0)/float64(done1-done0)*1000)
				w.simRate = append(w.simRate, gatewayMachines*(sim1-sim0)/t1.Sub(t0).Seconds())
			}
			cpu0, done0, sim0, t0 = cpu1, done1, sim1, t1
		}
	}()

	cpuStart := cpuSeconds()
	for i := range sched {
		if d := time.Until(start.Add(sched[i].due)); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			w.stats[i] = send(c, client, lg.url, start.Add(sched[i].due), sched[i].body, parent, int64(i+1))
			completed.Add(1)
		}(i)
	}
	wg.Wait()
	w.cpuTotal = cpuSeconds() - cpuStart
	w.wallS = time.Since(start).Seconds()
	close(sliceStop)
	<-sliceDone
	for _, s := range w.stats {
		w.tokens += s.tokens
	}
	if n := lg.conns.Load(); n > int64(c.workers) {
		return nil, fmt.Errorf("load used %d connections, more than %d", n, c.workers)
	}
	if len(w.cpuS) == 0 {
		return nil, fmt.Errorf("a %.1f s window has no whole %g s slice after the first; raise --seconds", w.wallS, gatewaySliceS)
	}
	return w, nil
}

// chunk is the part of a chat.completion.chunk the stream check reads.
type chunk struct {
	Choices []struct {
		Delta struct {
			Role    string `json:"role"`
			Content string `json:"content"`
		} `json:"delta"`
		FinishReason *string `json:"finish_reason"`
	} `json:"choices"`
}

// send issues one streaming completion and checks the response: a 200
// must stream role, then content, then finish_reason, then [DONE] and
// carry a parseable simulated-TTFT header; any other status must carry
// the error envelope (and still counts as a failed request).
func send(c *runCtx, client *http.Client, url string, due time.Time, body []byte, parent int, id int64) reqStat {
	st := reqStat{problem: "malformed stream"}
	sent := time.Now()
	st.late = sent.Sub(due).Seconds()
	root := c.rec.begin("gateway.request", parent, id)
	defer c.rec.end(root)
	wait := c.rec.begin("gateway.first_token", root, id)
	stream := 0
	defer func() {
		if stream == 0 {
			c.rec.end(wait)
		}
		c.rec.end(stream)
	}()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		st.problem = err.Error()
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct{ Type, Message string } `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&env) != nil || env.Error.Type == "" || env.Error.Message == "" {
			st.problem = fmt.Sprintf("status %d without the error envelope", resp.StatusCode)
		} else {
			st.problem = fmt.Sprintf("status %d: %s", resp.StatusCode, env.Error.Type)
		}
		return st
	}
	simTTFT, err := strconv.ParseFloat(resp.Header.Get(aum.HeaderSimulatedTTFT), 64)
	if err != nil || resp.Header.Get("Content-Type") != "text/event-stream" {
		st.problem = "missing simulated TTFT header or event-stream content type"
		return st
	}
	rd := bufio.NewReader(resp.Body)
	// 0 want role, 1 want first content, 2 content or finish, 3 want
	// [DONE], 4 done; anything else is out of order.
	state := 0
	var last time.Time
	for state < 4 {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			break
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			break
		}
		now := time.Now()
		if state == 3 {
			if string(data) == "[DONE]" {
				state = 4
			}
			break
		}
		var ch chunk
		if json.Unmarshal(data, &ch) != nil || len(ch.Choices) != 1 {
			break
		}
		d, fin := ch.Choices[0].Delta, ch.Choices[0].FinishReason
		switch {
		case state == 0 && d.Role == "assistant" && fin == nil:
			state = 1
		case state >= 1 && d.Content != "" && fin == nil:
			if state == 1 {
				st.ttft = now.Sub(due).Seconds()
				st.lag = now.Sub(sent).Seconds() - simTTFT/gatewayWarp
				c.rec.end(wait)
				stream = c.rec.begin("gateway.stream", root, id)
			} else {
				st.itl = append(st.itl, now.Sub(last).Seconds())
			}
			last = now
			st.tokens++
			state = 2
		case state == 2 && fin != nil:
			state = 3
		default:
			state = 5
		}
	}
	io.Copy(io.Discard, resp.Body)
	st.ok = state == 4
	return st
}

func runGatewayStream(c *runCtx) error {
	// The whole workload runs on one P. The gateway's first barrier
	// waits out a sub-millisecond timer; a second, idle P would sleep in
	// the poller with millisecond granularity and fire it up to a
	// millisecond late in some starts and not others. Under load the
	// time-warp pacing wakes the process for every released token, and
	// with a second P what those wake-ups cost moves with the host's
	// load: on a 2-core host cpu_s read 1.2-2.7 over half an hour at two
	// Ps, and 1.07-1.17 at one P in a stretch where two read 1.17-1.30.
	runtime.GOMAXPROCS(1)
	var setupS []float64
	var lg *liveGateway
	for i := 0; i < gatewaySetups; i++ {
		if lg != nil {
			if err := lg.stop(); err != nil {
				return err
			}
			time.Sleep(gatewaySetupGap)
		}
		var wall float64
		var err error
		if lg, wall, err = startGateway(c.seed); err != nil {
			return fmt.Errorf("starting gateway: %w", err)
		}
		setupS = append(setupS, wall)
	}
	sched := schedule(c.seed, gatewayRatePerS, c.seconds)

	// An untraced window: the end-to-end metrics, or the reference the
	// traced window's overhead is taken against.
	rec := c.rec
	c.rec = nil
	rss := startRSSPeak()
	ref, err := drive(c, lg, sched, 0)
	peak, rerr := rss.finish()
	c.rec = rec
	if err == nil && rerr != nil {
		err = fmt.Errorf("reading RSS: %w", rerr)
	}
	if err != nil {
		lg.stop()
		return err
	}
	checkWindow(c, ref)
	if !c.traced {
		if err := lg.stop(); err != nil {
			return err
		}
		c.set("setup_s", median(setupS))
		c.set("sim_s_per_s", median(ref.simRate))
		c.set("cpu_s", median(ref.cpuS))
		c.set("peak_rss_mb", peak)
		return nil
	}

	c.set("gateway.cpu_us_per_token", ref.cpuTotal/float64(ref.tokens)*1e6)
	var ttft, itl, lag, late []float64
	met := 0
	for _, s := range ref.stats {
		late = append(late, s.late*1e3)
		if !s.ok {
			continue
		}
		ttft = append(ttft, s.ttft*1e3)
		lag = append(lag, s.lag*1e3)
		itl = append(itl, scale(s.itl, 1e3)...)
		if s.ttft <= ttftLimitSimS/gatewayWarp {
			met++
		}
	}
	c.setDist("gateway.ttft_ms", ttft)
	c.setDist("gateway.itl_ms", itl)
	c.setDist("gateway.first_token_lag_ms", lag)
	c.setDist("loadgen.late_ms", late)
	c.set("gateway.slo_ok_ratio", float64(met)/float64(len(ref.stats)))

	// The traced window reads the gateway's own telemetry series.
	pass := c.rec.begin("pass", 0, 0)
	m := startMeter()
	sim0 := lg.g.Now()
	traced, err := drive(c, lg, sched, pass)
	rt := m.stop()
	simS := gatewayMachines * (lg.g.Now() - sim0)
	c.rec.end(pass)
	if err != nil {
		lg.stop()
		return err
	}
	checkWindow(c, traced)
	c.set("runtime.alloc_mb_per_sim_s", rt.allocMB/simS)
	c.set("runtime.gc_cpu_frac", rt.gcCPUS/rt.busyCPUS)
	snap := lg.reg.Snapshot()
	warp, _ := snap.GaugeValue("aum_gateway_warp_ratio")
	c.set("gateway.warp_ratio", warp/gatewayWarp)
	c.set("gateway.shed", float64(counterSum(snap, "aum_gateway_shed_total")))
	c.set("cluster.barriers_elided", float64(counterSum(snap, "aum_cluster_barriers_elided_total")))
	if steps := counterSum(snap, "aum_machine_steps_total"); steps > 0 {
		c.set("machine.replay_share", float64(counterSum(snap, "aum_machine_ff_steps_total"))/float64(steps))
	}
	c.set("telemetry.overhead_x", (traced.cpuTotal/float64(len(traced.stats)))/(ref.cpuTotal/float64(len(ref.stats))))
	return lg.stop()
}

// checkWindow counts every request of a window as one operation,
// failed unless it streamed a well-formed 200.
func checkWindow(c *runCtx, w *window) {
	for i, s := range w.stats {
		c.op(s.ok, "request %d: %s", i+1, s.problem)
	}
}
