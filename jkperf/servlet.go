package main

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/remote"
	"jkernel/internal/sched"
)

// servlet-http: open-loop HTTP from one generator over two keep-alive
// connections into httpd.Bridge behind net/http. The scheduler places
// four echo shards on two worker processes (unix sockets); the bridge
// also hosts an in-process native echo and a VM document servlet.

// workerSetup is the worker process's kernel: the control plane's
// deployer with the echo factory.
func workerSetup(k *core.Kernel) error {
	_, err := sched.ServeWorker(k, map[string]func() httpd.Servlet{
		"echo": func() httpd.Servlet { return echoServlet{} },
	})
	return err
}

// pattern is the GET body source: a GET for n bytes at offset s answers
// pattern[s:s+n]. Both the servlet and the checker derive it.
var pattern = func() []byte {
	p := make([]byte, 8192)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}()

// echoServlet echoes a POST body, answers a GET with a slice of pattern,
// and names the serving process in X-Worker.
type echoServlet struct{}

func (echoServlet) Service(req *httpd.Request) (*httpd.Response, error) {
	hdr := map[string]string{"X-Worker": strconv.Itoa(os.Getpid())}
	if req.Method == http.MethodPost {
		return &httpd.Response{Status: 200, Headers: hdr, Body: req.Body}, nil
	}
	var n, s int
	if _, err := fmt.Sscanf(req.Query, "n=%d&s=%d", &n, &s); err != nil || n < 0 || s < 0 || s+n > len(pattern) {
		return &httpd.Response{Status: 400, Headers: hdr, Body: []byte("bad query")}, nil
	}
	return &httpd.Response{Status: 200, Headers: hdr, Body: pattern[s : s+n]}, nil
}

// Route kinds and their quota per block of 10 requests: 60% remote
// shards, 30% in-process native, 10% VM.
const (
	hkRemote = iota
	hkNative
	hkVM
)

var httpQuota = quotaBlock(6, 3, 1)

const (
	remoteShards = 4
	bodyPool     = 8
	maxBody      = 4096
)

// httpGen draws routes, methods (GET or POST, even odds) and body sizes
// (log-uniform over 64 B–4 KiB).
func httpGen(seed, stream uint64) *gen {
	return newGen(httpQuota, seed, stream, func(g *gen, k uint8) op {
		o := op{kind: k, n: logUniform(g.rng, 64, maxBody), a: g.rng.Int64N(2)}
		if k == hkRemote {
			o.shape = uint8(g.rng.IntN(remoteShards))
		}
		if o.a == 1 {
			o.b = g.rng.Int64N(bodyPool)
		} else {
			o.b = g.rng.Int64N(int64(len(pattern) - maxBody))
		}
		return o
	})
}

// httpReq is one generated request in flight.
type httpReq struct {
	id  uint64 // root span id when traced, else 0
	due time.Time
	o   op
}

// servletInst is the front server, the scheduler and two client
// connections.
type servletInst struct {
	k      *core.Kernel
	bridge *httpd.Bridge
	sched  *sched.Scheduler
	ctl    *fwdControl
	srv    *http.Server
	ln     net.Listener
	conns  []*httpConn
	bodies [][]byte
	doc    []byte
	sock   string
	tr     *tracer

	mu      sync.Mutex
	workers map[string]int64 // remote requests served, by worker pid
}

// workerCommand re-executes this binary as a worker that dies with the
// benchmark process. Each worker runs one P: two workers and the front
// process then ask for no more parallelism than two cores give.
func workerCommand(i int, network, addr string) *exec.Cmd {
	cmd := remote.SelfExecCommand(i, network, addr)
	cmd.Env = append(cmd.Env, "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

var sockSeq int

func setupServlet(cfg *config, tr *tracer) (*servletInst, error) {
	sockSeq++
	s := &servletInst{tr: tr, workers: map[string]int64{},
		sock: filepath.Join(cfg.out, fmt.Sprintf("sock-%d-%d", os.Getpid(), sockSeq))}
	r := newRNG(cfg.seed, 100)
	for i := 0; i < bodyPool; i++ {
		s.bodies = append(s.bodies, payload(r, maxBody))
	}
	s.doc = payload(r, logUniform(r, 64, maxBody))
	if err := os.MkdirAll(s.sock, 0o755); err != nil {
		return nil, err
	}
	var err error
	if s.k, err = core.New(core.Options{}); err != nil {
		return nil, err
	}
	if s.bridge, err = httpd.NewBridge(s.k); err != nil {
		return nil, err
	}
	httpd.RegisterTypes(s.k)
	if _, err := s.bridge.MountNative("native", "/n/", echoServlet{}); err != nil {
		return nil, err
	}
	if _, err := s.bridge.MountDocServlet("doc", "/v/", s.doc); err != nil {
		return nil, err
	}
	s.sched, err = sched.Start(sched.Options{
		Kernel:     s.k,
		Bridge:     s.bridge,
		MinWorkers: 2,
		Strategy:   sched.LeastLoaded(),
		Autoscale:  sched.AutoscaleConfig{Disabled: true},
		Pool:       remote.PoolOptions{Dir: s.sock, Command: workerCommand},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < remoteShards; i++ {
		if err := s.sched.Deploy(fmt.Sprintf("echo%d", i), fmt.Sprintf("/r%d/", i), sched.DeploySpec{Kind: "native", Impl: "echo"}); err != nil {
			s.close()
			return nil, err
		}
	}
	s.ctl = &fwdControl{s: s.sched, tr: tr}
	s.bridge.SetControl(s.ctl)
	var h http.Handler = s.bridge
	if tr != nil {
		h = &tracedHandler{h: s.bridge, tr: tr, ctl: s.ctl}
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	s.srv = &http.Server{Handler: h}
	go s.srv.Serve(s.ln)
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", s.ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, &httpConn{c: c, br: bufio.NewReaderSize(c, 8192), bw: bufio.NewWriterSize(c, 8192)})
	}
	return s, nil
}

// warm sends one checked request per route kind and shard.
func (s *servletInst) warm() error {
	for i := 0; i < remoteShards; i++ {
		if err := s.do(0, &httpReq{o: op{kind: hkRemote, shape: uint8(i), n: 64, a: 1}}); err != nil {
			return err
		}
	}
	if err := s.do(0, &httpReq{o: op{kind: hkNative, n: 64}}); err != nil {
		return err
	}
	return s.do(1, &httpReq{o: op{kind: hkVM, n: 64}})
}

func (s *servletInst) close() {
	for _, c := range s.conns {
		c.c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.sched != nil {
		s.sched.Close()
	}
	os.RemoveAll(s.sock)
}

// httpConn is one keep-alive client connection.
type httpConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// do sends r on connection c and checks status and body checksum.
func (s *servletInst) do(c int, r *httpReq) error {
	hc := s.conns[c]
	o := r.o
	var path string
	switch o.kind {
	case hkRemote:
		path = fmt.Sprintf("/r%d/e", o.shape)
	case hkNative:
		path = "/n/e"
	default:
		path = "/v/e"
	}
	var body, want []byte
	if o.a == 1 {
		body = s.bodies[o.b][:o.n]
		want = body
		fmt.Fprintf(hc.bw, "POST %s HTTP/1.1\r\nHost: jkperf\r\nX-Req: %d\r\nContent-Length: %d\r\n\r\n", path, r.id, len(body))
		hc.bw.Write(body)
	} else {
		want = pattern[o.b : o.b+int64(o.n)]
		fmt.Fprintf(hc.bw, "GET %s?n=%d&s=%d HTTP/1.1\r\nHost: jkperf\r\nX-Req: %d\r\n\r\n", path, o.n, o.b, r.id)
	}
	if o.kind == hkVM {
		want = s.doc
	}
	if err := hc.bw.Flush(); err != nil {
		return err
	}
	resp, err := http.ReadResponse(hc.br, nil)
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	if crc32.Checksum(got, crcTable) != crc32.Checksum(want, crcTable) {
		return fmt.Errorf("%s: body checksum mismatch (%d bytes, want %d)", path, len(got), len(want))
	}
	if o.kind == hkRemote {
		pid := resp.Header.Get("X-Worker")
		if pid == "" || pid == strconv.Itoa(os.Getpid()) {
			return fmt.Errorf("%s: served by %q, not a worker process", path, pid)
		}
		s.mu.Lock()
		s.workers[pid]++
		s.mu.Unlock()
	}
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// workerShareMax is the largest share of remote requests one worker
// served.
func (s *servletInst) workerShareMax() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total, top int64
	for _, n := range s.workers {
		total += n
		top = max(top, n)
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// fwdControl forwards the bridge's control-plane hook to the scheduler,
// timing ObserveRequest in traced runs.
type fwdControl struct {
	s  *sched.Scheduler
	tr *tracer

	mu     sync.Mutex
	active []uint64 // traced bridge spans in progress
}

func (f *fwdControl) UploadServlet(name, prefix, main string, bundle map[string][]byte) error {
	return f.s.UploadServlet(name, prefix, main, bundle)
}

func (f *fwdControl) TerminateServlet(name string) (bool, error) { return f.s.TerminateServlet(name) }

func (f *fwdControl) ServletFault(name string, err error) { f.s.ServletFault(name, err) }

// ObserveRequest runs inside Bridge.ServeHTTP. Its span's parent is the
// most recently started traced bridge span; with two connections that is
// the enclosing request in all but overlapping cases.
func (f *fwdControl) ObserveRequest(name string, status int, err error, dur time.Duration) {
	if f.tr == nil {
		f.s.ObserveRequest(name, status, err, dur)
		return
	}
	start := f.tr.now()
	f.s.ObserveRequest(name, status, err, dur)
	end := f.tr.now()
	f.mu.Lock()
	var parent uint64
	if n := len(f.active); n > 0 {
		parent = f.active[n-1]
	}
	f.mu.Unlock()
	if parent != 0 {
		f.tr.record(span{Name: "sched.observe", Parent: parent, Start: start, End: end})
	}
}

func (f *fwdControl) enter(id uint64) {
	f.mu.Lock()
	f.active = append(f.active, id)
	f.mu.Unlock()
}

func (f *fwdControl) leave(id uint64) {
	f.mu.Lock()
	for i, a := range f.active {
		if a == id {
			f.active = append(f.active[:i], f.active[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// tracedHandler times Bridge.ServeHTTP for requests carrying a non-zero
// X-Req (the client's root span id).
type tracedHandler struct {
	h   http.Handler
	tr  *tracer
	ctl *fwdControl
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseUint(r.Header.Get("X-Req"), 10, 64)
	if req == 0 {
		t.h.ServeHTTP(w, r)
		return
	}
	name := "httpd.serve.vm"
	switch {
	case len(r.URL.Path) > 2 && r.URL.Path[1] == 'r':
		name = "httpd.serve.remote"
	case len(r.URL.Path) > 2 && r.URL.Path[1] == 'n':
		name = "httpd.serve.native"
	}
	id := t.tr.newID()
	start := t.tr.now()
	t.ctl.enter(id)
	t.h.ServeHTTP(w, r)
	t.ctl.leave(id)
	t.tr.record(span{Name: name, ID: id, Parent: req, Req: req, Start: start, End: t.tr.now()})
}

// --- open-loop load generator ----------------------------------------------

// loadPhase is one open-loop phase at a fixed offered rate.
type loadPhase struct {
	rate      float64
	issued    int64
	completed int64 // completed by the end of the phase window
	failed    int64
	backlog   int64   // issued but not completed at the end of the window
	windows   []*hist // latency from due time, by sub-window of due time
	all       *hist
	lag       *hist
}

// quantileMS is the q quantile of latency from due time, in ms: the
// median over sub-windows.
func (p *loadPhase) quantileMS(q float64) float64 {
	var xs []float64
	for _, h := range p.windows {
		if h.n > 0 {
			xs = append(xs, h.quantile(q)/1e6)
		}
	}
	return median(xs)
}

// windowQuantilesMS lists the q quantile of each sub-window, in ms.
func (p *loadPhase) windowQuantilesMS(q float64) []float64 {
	var xs []float64
	for _, h := range p.windows {
		xs = append(xs, h.quantile(q)/1e6)
	}
	return xs
}

// target serves one request on connection conn.
type target func(conn int, r *httpReq) error

// openLoop offers rate requests per second for dur: request i is due at
// start + i/rate whether or not earlier ones have finished. One generator
// hands due requests to conns connection goroutines through a queue;
// each request's latency runs from its due time, so a stall charges
// every request queued behind it. windows sub-windows split the
// latency by due time. The phase ends when every issued request has
// finished.
func openLoop(rate float64, dur time.Duration, conns, windows int, next func() op, do target) *loadPhase {
	total := int(rate * dur.Seconds())
	p := &loadPhase{rate: rate, all: newHist(), lag: newHist()}
	for i := 0; i < windows; i++ {
		p.windows = append(p.windows, newHist())
	}
	// The queue holds every request of the phase, so the generator never
	// blocks on it: a stalled target grows the backlog, not the lag.
	q := make(chan *httpReq, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	interval := time.Duration(float64(time.Second) / rate)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := range q {
				err := do(c, r)
				done := time.Now()
				lat := int64(done.Sub(r.due))
				w := min(windows-1, int(r.due.Sub(start)*time.Duration(windows)/dur))
				mu.Lock()
				if err != nil {
					p.failed++
					logFailure("servlet-http: %v", err)
				} else {
					p.all.add(lat)
					p.windows[w].add(lat)
				}
				if !done.After(end) {
					p.completed++
				}
				mu.Unlock()
			}
		}(c)
	}
	sl := newSleeper()
	defer sl.close()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		sl.sleep(time.Until(due))
		r := &httpReq{due: due, o: next()}
		p.lag.add(int64(time.Since(due)))
		q <- r
	}
	p.issued = int64(total)
	sl.sleep(time.Until(end))
	mu.Lock()
	p.backlog = p.issued - p.completed - p.failed
	mu.Unlock()
	close(q)
	wg.Wait()
	return p
}

// --- the workload ------------------------------------------------------------

// servletWindows splits each fixed-rate phase into sub-windows whose
// percentiles are reduced by median.
const servletWindows = 12

// runServlet measures the end-to-end metrics with a closed loop over the
// two connections. The traced run adds per-layer spans and the open-loop
// figures: latency from due time at the fixed rates r1 and r2, and the
// highest ladder rate whose p99 stays under the limit. On a host whose
// capacity swings between periods, the open-loop tail swings with it far
// more than a closed loop does, so those figures carry no bound.
func runServlet(cfg *config, tr *tracer, res *result) error {
	s, setupS, err := repeatSetup(setupReps, func() (*servletInst, error) { return setupServlet(cfg, tr) })
	if err != nil {
		return err
	}
	defer s.close()
	res.e2e["setup_s"] = setupS
	gens := make([]*gen, len(s.conns))
	for c := range gens {
		gens[c] = httpGen(cfg.seed, uint64(c))
	}
	n, each, openBudget := phases(cfg)
	run := runClosed(len(s.conns), warmup, each, n, tr, func(c int, st *callerStats, tr *tracer, parent uint64) string {
		t0 := time.Now()
		if err := s.do(c, &httpReq{id: parent, o: gens[c].op()}); err != nil {
			st.fail("servlet-http: %v", err)
			return "http.request"
		}
		st.calls++
		st.lat.add(int64(time.Since(t0)))
		return "http.request"
	})
	res.attempted, res.failed = run.attempted, run.failed
	closedE2E(res, run)
	res.report["worker_share_max"] = s.workerShareMax()
	if tr == nil {
		return nil
	}
	syscallLayers(run, res.layers)
	res.layers["trace.overhead_ratio"] = overheadRatio(run)
	res.layers["remote.frames_per_call"] = float64(framesOut(s.k)) / float64(max(1, run.attempted))
	self := tr.selfTimes()
	for _, k := range []string{"native", "vm", "remote"} {
		res.layers["httpd.serve_ns."+k] = self["httpd.serve."+k].perCall()
	}
	res.layers["httpd.outside_ns"] = self["http.request"].perCall()
	res.layers["sched.observe_ns"] = self["sched.observe"].perCall()
	res.layers["sched.worker_share_max"] = s.workerShareMax()
	s.openLoopFigures(cfg, gens[0], openBudget, res)
	return nil
}

// openLoopFigures runs r1, r2 and the rate ladder, untraced, within
// budget: a quarter each for r1 and r2, half for the ladder.
func (s *servletInst) openLoopFigures(cfg *config, g *gen, budget time.Duration, res *result) {
	phase := func(rate float64, d time.Duration) *loadPhase {
		p := openLoop(rate, d, len(s.conns), servletWindows, g.op, s.do)
		res.attempted += p.issued
		res.failed += p.failed
		return p
	}
	describe := func(p *loadPhase) map[string]any {
		return map[string]any{"rate": p.rate, "issued": p.issued, "failed": p.failed,
			"error_rate": float64(p.failed) / float64(max(1, p.issued)),
			"p50_ms":     p.quantileMS(0.5), "p99_ms": p.quantileMS(0.99),
			"window_p99_ms": p.windowQuantilesMS(0.99),
			"lag_p50_ms":    p.lag.quantile(0.5) / 1e6, "lag_p99_ms": p.lag.quantile(0.99) / 1e6, "backlog_end": p.backlog}
	}
	r1 := phase(cfg.rates[0], budget/4)
	r2 := phase(cfg.rates[1], budget/4)
	res.layers["openloop.http_p50_ms.r1"] = r1.quantileMS(0.5)
	res.layers["openloop.http_p99_ms.r1"] = r1.quantileMS(0.99)
	res.layers["openloop.http_p50_ms.r2"] = r2.quantileMS(0.5)
	res.layers["openloop.http_p99_ms.r2"] = r2.quantileMS(0.99)
	res.layers["loadgen.lag_p99_ms"] = max(r1.lag.quantile(0.99), r2.lag.quantile(0.99)) / 1e6
	res.layers["loadgen.backlog_end"] = float64(max(r1.backlog, r2.backlog))
	if r1.failed+r2.failed > 0 {
		res.invariant("servlet-http: %d failed requests at r1/r2", r1.failed+r2.failed)
	}

	// The ladder: ascending offered rates, each passing while its p99
	// stays under the limit with no failures and no growing backlog
	// (more left at the end than the limit's worth of arrivals). A step
	// that fails is run once more, so one short stall cannot end the
	// ladder; an overloaded rate fails both times.
	step := min(time.Second, max(200*time.Millisecond, budget/2/time.Duration(len(cfg.ladder))))
	end := time.Now().Add(budget / 2)
	var steps []any
	try := func(rate float64) (bool, float64) {
		p := phase(rate, step)
		p99 := p.all.quantile(0.99)
		pass := p.failed == 0 && p99 <= float64(cfg.p99Limit) && float64(p.backlog) <= math.Max(2, rate*cfg.p99Limit.Seconds())
		achieved := float64(p.completed) / step.Seconds()
		steps = append(steps, map[string]any{"rate": rate, "achieved": achieved,
			"p99_ms": p99 / 1e6, "backlog_end": p.backlog, "failed": p.failed, "pass": pass})
		return pass, achieved
	}
	for _, rate := range cfg.ladder {
		if time.Now().After(end) {
			break
		}
		pass, achieved := try(rate)
		if !pass {
			if pass, achieved = try(rate); !pass {
				break
			}
		}
		res.layers["openloop.http_max_rate_rps"] = achieved
	}
	res.report["phases"] = []any{describe(r1), describe(r2)}
	res.report["ladder"] = steps
	res.report["p99_limit_ms"] = cfg.p99Limit.Seconds() * 1e3
}
