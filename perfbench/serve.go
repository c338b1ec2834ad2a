package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/simsvc"
)

// The serve-zipf workload. Specs are reduced paper runs on a 4x4 torus;
// requests draw them Zipf-distributed over a key space four times the two
// backends' combined caches, open loop at a fixed rate. 70 req/s is about
// 15 misses/s: half of what the two single-worker backends executed before
// their queues grew in the slow minutes of a shared 2-core host, a quarter
// in its quiet ones. Queues stay short and no request should fail.
const (
	serveKeys        = 2048
	serveCacheSize   = 256
	serveZipfS       = 1.1
	serveRate        = 70.0 // requests per second
	serveWarmKeys    = 144  // hottest keys executed during set-up: one of each shape
	serveWarmRate    = 150.0
	servePollEvery   = 2 * time.Millisecond
	serveTimeout     = 10 * time.Second
	serveLimit       = 250 * time.Millisecond // latency limit for goodput
	serveMaxLag      = 100 * time.Millisecond // a lag tail past this voids the pass
	serveCheckSample = 4
	serveTailWindows = 4    // tails are medians over this many consecutive windows
	serveWarmup      = 1000 // cycles; served specs run warmup + measure
	serveSetupReps   = 3    // setup_s is the median of this many set-ups
)

var (
	serveSchemes  = []string{"PR", "DR", "SA"}
	servePatterns = []string{"PAT271", "PAT721"}
	serveRates    = []float64{0.004, 0.008, 0.012, 0.016, 0.02, 0.03}
	serveMeasures = []int64{500, 1000, 1500, 2000}
)

// serveShapes is the number of distinct spec shapes: scheme x pattern x
// rate x measure.
var serveShapes = len(serveSchemes) * len(servePatterns) * len(serveRates) * len(serveMeasures)

// serveSpec is key k's spec. Keys take the shapes in a seed-drawn order,
// cycling, so every seed's key space holds each shape equally often and its
// hottest serveShapes keys are one of each: the mix of work, and so the
// cost of a miss, does not depend on the seed. Drain is disabled (max_drain
// -1), so a run steps exactly warmup + measure cycles and ns_per_cycle is
// exact.
func serveSpec(ws uint64, order []int, k int) simsvc.RunSpec {
	sh := order[k%serveShapes]
	s := simsvc.RunSpec{
		Scheme:   serveSchemes[sh%len(serveSchemes)],
		Pattern:  servePatterns[sh/len(serveSchemes)%len(servePatterns)],
		Radix:    []int{4, 4},
		Rate:     serveRates[sh/(len(serveSchemes)*len(servePatterns))%len(serveRates)],
		Warmup:   serveWarmup,
		Measure:  serveMeasures[sh/(len(serveSchemes)*len(servePatterns)*len(serveRates))],
		MaxDrain: -1,
		Seed:     deriveSeed(ws, streamKeys, uint64(k)),
	}
	if s.Scheme == "SA" {
		s.VCs = 8 // SA needs two VCs per message type
	}
	return s
}

// serveInputs are the generated specs as sent, their request bodies, and
// the normalized form and hash the service must answer each with.
type serveInputs struct {
	raw, specs []simsvc.RunSpec
	bodies     [][]byte
	hashes     []string
}

func makeServeInputs(ws uint64) (serveInputs, error) {
	in := serveInputs{
		raw:    make([]simsvc.RunSpec, serveKeys),
		specs:  make([]simsvc.RunSpec, serveKeys),
		bodies: make([][]byte, serveKeys),
		hashes: make([]string, serveKeys),
	}
	order := rand.New(rand.NewSource(int64(deriveSeed(ws, streamKeys, serveKeys)))).Perm(serveShapes)
	for k := range in.specs {
		s := serveSpec(ws, order, k)
		body, err := json.Marshal(s)
		if err != nil {
			return in, err
		}
		norm, err := s.Normalized()
		if err != nil {
			return in, fmt.Errorf("key %d: %w", k, err)
		}
		in.raw[k], in.specs[k], in.bodies[k], in.hashes[k] = s, norm, body, norm.Hash()
	}
	return in, nil
}

// zipfKeys draws n request keys; key k has Zipf rank k. The rank sequence
// is the same for every workload seed, so every seed sees the same pattern
// of repeats, and so of hits and misses; the seed decides which spec sits
// at each rank.
func zipfKeys(n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(1)), serveZipfS, 1, serveKeys-1)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = int(z.Uint64())
	}
	return keys
}

// httpEvent is one request a traced server handled.
type httpEvent struct {
	coord      bool
	method     string
	path       string
	rid        string
	status     int
	start, end time.Time
}

// httpLog records, from outside the program, every request the coordinator
// and the backends serve: the traced pass's spans at the HTTP boundaries.
type httpLog struct {
	mu     sync.Mutex
	events []httpEvent
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (l *httpLog) wrap(coord bool, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		ev := httpEvent{coord: coord, method: r.Method, path: r.URL.Path, rid: rid,
			status: sw.status, start: start, end: time.Now()}
		l.mu.Lock()
		l.events = append(l.events, ev)
		l.mu.Unlock()
	})
}

// serveCluster is the in-process stack: a coordinator in front of two
// simserve backends, each with one worker, a 256-entry cache and its peer
// as fill-over source, all on loopback listeners.
type serveCluster struct {
	url    string
	scheds []*simsvc.Scheduler
	coord  *cluster.Coordinator
	srvs   []*http.Server
	wg     sync.WaitGroup
}

func startCluster(tr *httpLog) (*serveCluster, error) {
	quiet := log.New(io.Discard, "", 0)
	c := &serveCluster{}
	var lns []net.Listener
	fail := func(err error) (*serveCluster, error) {
		for _, ln := range lns {
			ln.Close()
		}
		for _, s := range c.scheds {
			s.Drain(context.Background())
		}
		return nil, err
	}
	urls := make([]string, 3) // two backends, then the coordinator
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns, urls[i] = append(lns, ln), "http://"+ln.Addr().String()
	}
	handlers := make([]http.Handler, 3)
	for i := 0; i < 2; i++ {
		store, err := simsvc.NewStore(serveCacheSize, "")
		if err != nil {
			return fail(err)
		}
		sched := simsvc.NewScheduler(simsvc.SchedConfig{
			Workers: 1, QueueDepth: 64, Store: store,
			PeerFill: cluster.PeerFiller([]string{urls[1-i]}, time.Second),
		})
		api := simsvc.NewServer(sched)
		api.SetLogger(quiet)
		c.scheds = append(c.scheds, sched)
		handlers[i] = tr.wrap(false, api)
	}
	coord, err := cluster.New(cluster.Config{Backends: urls[:2], Logger: quiet})
	if err != nil {
		return fail(err)
	}
	c.coord, c.url = coord, urls[2]
	handlers[2] = tr.wrap(true, coord)
	for i, ln := range lns {
		srv := &http.Server{Handler: handlers[i], ReadHeaderTimeout: 5 * time.Second, ErrorLog: quiet}
		c.srvs = append(c.srvs, srv)
		c.wg.Add(1)
		go func(ln net.Listener) {
			defer c.wg.Done()
			srv.Serve(ln)
		}(ln)
	}
	return c, nil
}

// stop drains the coordinator, then the servers and the schedulers, and
// waits for every serving goroutine to end.
func (c *serveCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c.coord.Drain(ctx)
	for i := len(c.srvs) - 1; i >= 0; i-- {
		c.srvs[i].Shutdown(ctx)
	}
	for _, s := range c.scheds {
		s.Drain(ctx)
	}
	c.wg.Wait()
}

// request is one client request's record.
type request struct {
	key        int
	due        time.Time
	sent, done time.Time
	ok         bool
	status     int // last HTTP status; 0 for a transport error or timeout
	polls      int
	view       simsvc.JobView
}

func (r *request) latency() time.Duration { return r.done.Sub(r.due) }

// client sends over at most two connections.
type client struct {
	http *http.Client
	tr   *http.Transport
	base string
	pre  string // request-ID prefix
}

func newClient(base, pre string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: serveTimeout}, tr: tr, base: base, pre: pre}
}

// do sends one request with its own X-Request-ID and decodes the job view.
func (c *client) do(method, path string, body []byte, rid string) (int, simsvc.JobView, error) {
	var v simsvc.JobView
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, v, err
	}
	req.Header.Set("X-Request-ID", rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, v, err
	}
	if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(data, &v)
	}
	return resp.StatusCode, v, err
}

// drive sends one request per key, open loop: request i is due at
// i/rate seconds after the start and is timed from then, whatever the
// sender was doing. The calling goroutine submits; a second goroutine polls
// accepted jobs every servePollEvery until they are done.
func drive(c *client, in serveInputs, keys []int, rate float64) []request {
	reqs := make([]request, len(keys))
	pending := make(chan int, len(keys)) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		poll(c, reqs, pending)
	}()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i, k := range keys {
		r := &reqs[i]
		r.key, r.due = k, start.Add(time.Duration(i)*interval)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.sent = time.Now()
		status, v, err := c.do(http.MethodPost, "/v1/runs", in.bodies[k], fmt.Sprintf("%s-%d-s", c.pre, i))
		r.status = status
		switch {
		case err != nil || (status != http.StatusOK && status != http.StatusAccepted):
			r.done = time.Now()
		case v.Status == simsvc.StatusDone:
			r.ok, r.view, r.done = true, v, time.Now()
		default:
			r.view = v
			pending <- i
		}
	}
	close(pending)
	wg.Wait()
	return reqs
}

// poll follows accepted jobs to completion until the sender is done and
// nothing is pending. A job not done within serveTimeout of its due time
// fails.
func poll(c *client, reqs []request, pending <-chan int) {
	var live []int
	open := true
	for open || len(live) > 0 {
		if len(live) == 0 {
			i, ok := <-pending
			if !ok {
				return
			}
			live = append(live, i)
		}
		for more := true; more && open; {
			select {
			case i, ok := <-pending:
				if !ok {
					open = false
				} else {
					live = append(live, i)
				}
			default:
				more = false
			}
		}
		time.Sleep(servePollEvery)
		kept := live[:0]
		for _, i := range live {
			r := &reqs[i]
			r.polls++
			status, v, err := c.do(http.MethodGet, "/v1/runs/"+r.view.ID, nil, fmt.Sprintf("%s-%d-p%d", c.pre, i, r.polls))
			r.status = status
			switch {
			case err == nil && status == http.StatusOK && v.Status == simsvc.StatusDone:
				r.ok, r.view, r.done = true, v, time.Now()
			case err == nil && status == http.StatusOK && v.Status != simsvc.StatusFailed &&
				time.Since(r.due) < serveTimeout:
				kept = append(kept, i)
			default:
				if err != nil {
					r.status = 0
				}
				r.done = time.Now()
			}
		}
		live = kept
	}
}

// servePass is one set-up cluster plus one timed phase.
type servePass struct {
	reqs    []request
	elapsed time.Duration
	heapMB  float64
	// Counter deltas over the timed phase.
	hits, misses, coalesced, executed, peerFills float64
	hedges, hedgeWins, reroutes                  float64
}

// setUp starts a cluster and executes the hottest keys, so timing starts
// with the hot head cached, as a long-running service would have it.
func setUp(in serveInputs, warmKeys int, tr *httpLog) (*serveCluster, error) {
	c, err := startCluster(tr)
	if err != nil {
		return nil, err
	}
	warm := make([]int, warmKeys)
	for i := range warm {
		warm[i] = i
	}
	cl := newClient(c.url, "warm")
	defer cl.tr.CloseIdleConnections()
	for _, r := range drive(cl, in, warm, serveWarmRate) {
		if !r.ok {
			c.stop()
			return nil, fmt.Errorf("warm-up request for key %d failed with status %d", r.key, r.status)
		}
	}
	return c, nil
}

func schedTotals(c *serveCluster) (hits, misses, coalesced, executed, fills float64) {
	for _, s := range c.scheds {
		m := s.Metrics()
		hits += float64(m.Cache.Hits)
		misses += float64(m.Cache.Misses)
		coalesced += float64(m.Cache.Coalesced)
		executed += float64(m.Cache.Executed)
		fills += float64(m.Cache.PeerFills)
	}
	return
}

// coordCounters reads the coordinator's hedge and reroute counters from its
// metrics registry.
func coordCounters(c *serveCluster) (hedges, wins, reroutes float64) {
	var b strings.Builder
	c.coord.Registry().WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		var v float64
		switch {
		case scan(line, "simring_hedges_total", &v):
			hedges = v
		case scan(line, "simring_hedge_wins_total", &v):
			wins = v
		case scan(line, "simring_reroutes_total", &v):
			reroutes = v
		}
	}
	return
}

func scan(line, name string, v *float64) bool {
	rest, ok := strings.CutPrefix(line, name+" ")
	if !ok {
		return false
	}
	_, err := fmt.Sscan(rest, v)
	return err == nil
}

// timed runs the timed phase on a set-up cluster.
func timed(c *serveCluster, in serveInputs, keys []int, pre string) servePass {
	var p servePass
	h0, m0, co0, e0, f0 := schedTotals(c)
	hd0, w0, rr0 := coordCounters(c)
	cl := newClient(c.url, pre)
	defer cl.tr.CloseIdleConnections()
	heap := startHeapSampler()
	start := time.Now()
	p.reqs = drive(cl, in, keys, serveRate)
	p.elapsed = time.Since(start)
	p.heapMB = heap.Stop()
	h1, m1, co1, e1, f1 := schedTotals(c)
	hd1, w1, rr1 := coordCounters(c)
	p.hits, p.misses, p.coalesced, p.executed, p.peerFills = h1-h0, m1-m0, co1-co0, e1-e0, f1-f0
	p.hedges, p.hedgeWins, p.reroutes = hd1-hd0, w1-w0, rr1-rr0
	return p
}

// spans returns the named job-span durations of completed requests that
// the service executed rather than answered from cache.
func (p servePass) spans(name string) dist {
	var d dist
	for _, r := range p.reqs {
		if !r.ok || r.view.Cached {
			continue
		}
		for _, s := range r.view.Spans {
			if s.Name == name {
				d = append(d, float64(s.DurUS)*1e3) // ns
			}
		}
	}
	return d
}

// runs returns the execute span (ns) of every miss the service ran for a
// completed request, and the cycles those runs stepped.
func (p servePass) runs(in serveInputs) (exec dist, cycles float64) {
	for _, r := range p.reqs {
		if !r.ok || r.view.Cached {
			continue
		}
		for _, s := range r.view.Spans {
			if s.Name == "execute" {
				exec = append(exec, float64(s.DurUS)*1e3)
				cycles += float64(in.specs[r.key].Warmup + in.specs[r.key].Measure)
			}
		}
	}
	return exec, cycles
}

func (p servePass) latencies() dist {
	var d dist
	for _, r := range p.reqs {
		if r.ok {
			d = append(d, ms(r.latency()))
		}
	}
	return d
}

func (p servePass) lags() dist {
	var d dist
	for _, r := range p.reqs {
		d = append(d, ms(r.sent.Sub(r.due)))
	}
	return d
}

// account counts attempts and failures and runs the output checks: every
// payload answers the spec the client sent, a fixed sample re-executes to
// byte-identical payloads, and the generator kept to its schedule.
func (p servePass) account(res *result, in serveInputs) {
	for _, r := range p.reqs {
		res.attempted++
		if !r.ok {
			res.failed++
			continue
		}
		var got struct {
			SpecHash string `json:"spec_hash"`
		}
		if err := json.Unmarshal(r.view.Result, &got); err != nil || got.SpecHash != in.hashes[r.key] || r.view.SpecHash != in.hashes[r.key] {
			res.problem("key %d: served spec_hash %q (job %q), sent spec hashes to %s", r.key, got.SpecHash, r.view.SpecHash, in.hashes[r.key])
		}
	}
	checked := map[int]bool{}
	for _, r := range p.reqs {
		if len(checked) == serveCheckSample {
			break
		}
		if !r.ok || checked[r.key] {
			continue
		}
		checked[r.key] = true
		want, err := simsvc.Execute(context.Background(), in.specs[r.key], nil)
		var got bytes.Buffer
		if err == nil {
			err = json.Compact(&got, r.view.Result)
		}
		if err != nil || !bytes.Equal(got.Bytes(), want) {
			res.problem("key %d: served payload differs from a direct simsvc.Execute (err %v)", r.key, err)
		}
	}
	if lag, _ := p.lags().tail(); lag > ms(serveMaxLag) {
		res.problem("generator fell behind its schedule: lag tail %.1f ms > %v; pass invalid", lag, serveMaxLag)
	}
}

// serveSetup sets up reps times (keeping the last cluster) and returns it
// with the median set-up time in seconds.
func serveSetup(ws uint64, reps, warmKeys int, tr *httpLog) (*serveCluster, serveInputs, float64, error) {
	var d dist
	var c *serveCluster
	var in serveInputs
	for j := 0; j < reps; j++ {
		if c != nil {
			c.stop()
		}
		start := time.Now()
		var err error
		if in, err = makeServeInputs(ws); err != nil {
			return nil, in, 0, err
		}
		if c, err = setUp(in, warmKeys, tr); err != nil {
			return nil, in, 0, err
		}
		d = append(d, time.Since(start).Seconds())
	}
	return c, in, d.median(), nil
}

func runServe(o options) (*result, error) {
	prev := runtime.GOMAXPROCS(3 * runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	res := &result{metrics: map[string]float64{}}
	n := int(o.seconds * serveRate)
	reps, warm := serveSetupReps, serveWarmKeys
	if o.short {
		n, reps, warm = 40, 1, 16
	}
	if !o.trace {
		c, in, setup, err := serveSetup(o.seed, reps, warm, nil)
		if err != nil {
			return nil, err
		}
		p := timed(c, in, zipfKeys(n), "t")
		c.stop()
		p.account(res, in)
		lat := p.latencies()
		tail, pct, per := lat.windowTail(serveTailWindows)
		exec, cycles := p.runs(in)
		within := 0
		for _, r := range p.reqs {
			if r.ok && r.latency() <= serveLimit {
				within++
			}
		}
		runTail, runPct, runPer := exec.windowTail(serveTailWindows)
		m := res.metrics
		m["setup_s"] = setup
		m["req_ms_p50"], m["req_ms_tail"] = lat.median(), tail
		m["goodput_rps"] = ratio(float64(within), p.elapsed.Seconds())
		m["run_ms_p50"], m["run_ms_tail"] = exec.median()/1e6, runTail/1e6
		m["ns_per_cycle"] = ratio(exec.sum(), cycles)
		m["heap_peak_mb"] = p.heapMB
		m["info.requests"], m["info.tail_pct"], m["info.tail_window"] = float64(len(lat)), pct, float64(per)
		m["info.executed"], m["info.run_tail_pct"], m["info.run_tail_window"] = float64(len(exec)), runPct, float64(runPer)
		return res, nil
	}

	// Traced: an untraced timed phase for the reference latency, then the
	// same phase on a cluster whose HTTP boundaries are logged. Each half
	// gets half the budget and one set-up.
	keys := zipfKeys(n / 2)
	c, in, _, err := serveSetup(o.seed, 1, warm, nil)
	if err != nil {
		return nil, err
	}
	plain := timed(c, in, keys, "u")
	c.stop()
	plain.account(res, in)

	tr := &httpLog{}
	c, in, _, err = serveSetup(o.seed, 1, warm, tr)
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	tr.events = nil // keep only the timed phase
	tr.mu.Unlock()
	p := timed(c, in, keys, "t")
	c.stop()
	p.account(res, in)

	// What the service does with each submitted spec before it routes or
	// looks up anything.
	hashStart := time.Now()
	for _, s := range in.raw {
		norm, err := s.Normalized()
		if err != nil {
			return nil, err
		}
		norm.Hash()
	}
	hashUS := us(time.Since(hashStart)) / float64(len(in.raw))

	var polls float64
	for _, r := range p.reqs {
		polls += float64(r.polls)
	}
	submits := float64(len(p.reqs))
	lag, _ := p.lags().tail()
	self, submitUS, getUS := tr.breakdown()
	qw := p.spans("queue-wait")
	qwTail, _ := qw.tail()
	exec, _ := p.runs(in)
	m := res.metrics
	m["load.lag_ms_tail"] = lag
	m["load.polls_per_req"] = polls / submits
	m["cluster.self_us_p50"] = self.median() / 1e3
	m["cluster.hedge_frac"] = ratio(p.hedges, submits)
	m["cluster.hedge_win_frac"] = ratio(p.hedgeWins, p.hedges)
	m["cluster.retry_frac"] = ratio(p.reroutes, submits)
	m["cluster.fill_hit_frac"] = ratio(p.peerFills, p.peerFills+p.executed)
	m["simsvc.spec_hash_us"] = hashUS
	m["simsvc.submit_us_p50"] = submitUS.median() / 1e3
	m["simsvc.get_us_p50"] = getUS.median() / 1e3
	m["simsvc.hit_frac"] = ratio(p.hits, p.hits+p.misses)
	m["simsvc.coalesce_frac"] = ratio(p.coalesced, p.misses)
	m["simsvc.queue_wait_ms_p50"] = qw.median() / 1e6
	m["simsvc.queue_wait_ms_tail"] = qwTail / 1e6
	m["simsvc.execute_ms_p50"] = exec.median() / 1e6
	m["simsvc.encode_us_p50"] = p.spans("encode").median() / 1e3
	m["simsvc.busy_frac"] = ratio(exec.sum(), float64(len(c.scheds))*float64(p.elapsed.Nanoseconds()))
	m["trace.overhead_frac"] = ratio(p.latencies().median(), plain.latencies().median())
	m["info.untraced_req_ms_p50"] = plain.latencies().median()
	return res, nil
}

// breakdown derives, from the logged HTTP spans, the coordinator's self
// time per request (its handling time minus the backend handling it caused,
// matched by X-Request-ID and clipped to its own interval), and the backend
// handling times of cache-hit submits and of polls, all in ns.
func (l *httpLog) breakdown() (self, submit, get dist) {
	l.mu.Lock()
	defer l.mu.Unlock()
	byRID := map[string][]httpEvent{}
	for _, ev := range l.events {
		if ev.coord {
			continue
		}
		byRID[ev.rid] = append(byRID[ev.rid], ev)
		switch {
		case ev.method == http.MethodPost && ev.status == http.StatusOK:
			submit = append(submit, float64(ev.end.Sub(ev.start).Nanoseconds()))
		case ev.method == http.MethodGet && strings.HasPrefix(ev.path, "/v1/runs/"):
			get = append(get, float64(ev.end.Sub(ev.start).Nanoseconds()))
		}
	}
	for _, ev := range l.events {
		if !ev.coord || ev.rid == "" {
			continue
		}
		covered := coveredNs(byRID[ev.rid], ev.start, ev.end)
		self = append(self, float64(ev.end.Sub(ev.start).Nanoseconds())-covered)
	}
	return self, submit, get
}

// coveredNs is how much of [from, to] the events' intervals cover, counting
// overlaps (hedged legs run concurrently) once.
func coveredNs(evs []httpEvent, from, to time.Time) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, ev := range evs {
		a, b := ev.start, ev.end
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return float64(total.Nanoseconds())
}
