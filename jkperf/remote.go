package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/remote"
	"jkernel/internal/seri"
)

// remote-sync and remote-batched: a client kernel and a server kernel in
// one process, joined by one remote.Conn over TCP loopback.

// wirePair is the two-kernel set-up both remote workloads share.
type wirePair struct {
	kc, ks *core.Kernel
	ln     *remote.Listener
	conn   *remote.Conn
	proxy  *core.Capability
	srv    *remote.Conn // the listener's end of conn
	base   [2]remote.TableSizes
}

// dialPair exports svc from a fresh server kernel as "svc", dials it from
// a fresh client kernel and imports it. register runs on both kernels
// first.
func dialPair(svc any, register func(k *core.Kernel)) (*wirePair, error) {
	p := &wirePair{kc: core.MustNew(core.Options{}), ks: core.MustNew(core.Options{})}
	if register != nil {
		register(p.kc)
		register(p.ks)
	}
	d, err := p.ks.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		return nil, err
	}
	c, err := p.ks.CreateNativeCapability(d, svc)
	if err != nil {
		return nil, err
	}
	if err := p.ks.Export("svc", c); err != nil {
		return nil, err
	}
	if p.ln, err = remote.Listen(p.ks, "tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if p.conn, err = remote.Dial(p.kc, "tcp", p.ln.Addr().String()); err != nil {
		p.ln.Close()
		return nil, err
	}
	if p.proxy, err = p.conn.Import("svc"); err != nil {
		p.close()
		return nil, err
	}
	// The waits below yield instead of sleeping: they usually end within
	// microseconds, and a timer sleep would add up to a millisecond of
	// quantisation to setup_s.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.ln.Conns()) == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	conns := p.ln.Conns()
	if len(conns) != 1 {
		p.close()
		return nil, fmt.Errorf("listener holds %d connections, want 1", len(conns))
	}
	p.srv = conns[0]
	// The baseline is the quiescent post-import state: nothing pending.
	for {
		p.base = [2]remote.TableSizes{p.conn.TableSizes(), p.srv.TableSizes()}
		if p.base[0].Pending == 0 && p.base[1].Pending == 0 {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.close()
			return nil, fmt.Errorf("calls still pending after import: %+v", p.base)
		}
		runtime.Gosched()
	}
}

func (p *wirePair) close() {
	if p.conn != nil {
		p.conn.Close()
	}
	p.ln.Close()
}

// awaitBaseline waits until both ends' tables are back at their
// post-import sizes: every call answered, every churned capability
// released and collected on both sides.
func awaitBaseline(conns [2]*remote.Conn, base [2]remote.TableSizes, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conns[0].Flush()
		now := [2]remote.TableSizes{conns[0].TableSizes(), conns[1].TableSizes()}
		if now == base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tables did not return to baseline: client %+v (want %+v), server %+v (want %+v)",
				now[0], base[0], now[1], base[1])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// framesPerCall is both kernels' wire frames per call over a run.
func (p *wirePair) frames() int64 { return framesOut(p.kc) + framesOut(p.ks) }

// --- remote-sync --------------------------------------------------------

// syncSvc is remote-sync's server. Add stamps its entry and exit under
// the caller's span id when that id is non-zero, which is how a traced
// call splits into request path, serve and reply path on one clock.
type syncSvc struct {
	k      *core.Kernel
	d      *core.Domain
	tr     *tracer
	stamps sync.Map // call span id -> [2]int64{entry, exit}
}

func (s *syncSvc) Null() error { return nil }

func (s *syncSvc) Add(span, a, b int64) (int64, error) {
	if span == 0 {
		return a + b, nil
	}
	entry := s.tr.now()
	r := a + b
	s.stamps.Store(span, [2]int64{entry, s.tr.now()})
	return r, nil
}

func (s *syncSvc) Echo(b []byte) ([]byte, error) { return b, nil }

// Make mints a fresh capability: the churn cycle's first call.
func (s *syncSvc) Make() (*core.Capability, error) {
	return s.k.CreateNativeCapability(s.d, nullSvc{})
}

type nullSvc struct{}

func (nullSvc) Null() error { return nil }

// remote-sync op kinds, per block of 20: 60% null, 25% small scalar
// args, 5% 1 KiB echo, 10% churn cycles.
const (
	skNull = iota
	skAdd
	skEcho
	skChurn
)

var syncQuota = quotaBlock(12, 5, 1, 2)

var syncOpNames = [...]string{"op.null", "op.add", "op.echo", "op.churn"}

const echoPool = 16

func syncGen(seed, stream uint64) *gen {
	return newGen(syncQuota, seed, stream, func(g *gen, k uint8) op {
		o := op{kind: k}
		switch k {
		case skAdd:
			o.a, o.b = g.rng.Int64N(1<<40)-1<<39, g.rng.Int64N(1<<40)-1<<39
		case skEcho:
			o.a = g.rng.Int64N(echoPool)
		}
		return o
	})
}

// syncCallers is remote-sync's load threads, sharing one connection.
const syncCallers = 2

type syncInst struct {
	*wirePair
	svc   *syncSvc
	tasks [syncCallers]*core.Task
	gens  [syncCallers]*gen
	bufs  [][]byte
}

// setupSync builds remote-sync. wrap, when set, replaces the exported
// service (tests export a faulty one).
func setupSync(cfg *config, tr *tracer, wrap func(*syncSvc) any) (*syncInst, error) {
	svc := &syncSvc{tr: tr}
	var target any = svc
	if wrap != nil {
		target = wrap(svc)
	}
	p, err := dialPair(target, nil)
	if err != nil {
		return nil, err
	}
	svc.k = p.ks
	if svc.d, err = p.ks.NewDomain(core.DomainConfig{Name: "minted"}); err != nil {
		p.close()
		return nil, err
	}
	s := &syncInst{wirePair: p, svc: svc}
	cd, err := p.kc.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		p.close()
		return nil, err
	}
	for c := range s.tasks {
		s.tasks[c] = p.kc.NewDetachedTask(cd, "caller")
		s.gens[c] = syncGen(cfg.seed, uint64(c))
	}
	r := newRNG(cfg.seed, 100)
	for i := 0; i < echoPool; i++ {
		s.bufs = append(s.bufs, payload(r, 1024))
	}
	return s, nil
}

func (s *syncInst) warm() error {
	st := newCallerStats()
	for k := range syncOpNames {
		s.do(0, op{kind: uint8(k), a: 1, b: 2}, st, nil, 0)
	}
	if st.failed > 0 {
		return errors.New("remote-sync: warm-up op failed")
	}
	return nil
}

func (s *syncInst) close() { s.wirePair.close() }

func (s *syncInst) do(c int, o op, st *callerStats, tr *tracer, parent uint64) string {
	task := s.tasks[c]
	t0 := time.Now()
	var err error
	switch o.kind {
	case skNull:
		_, err = s.proxy.InvokeFrom(task, "Null")
	case skAdd:
		var id uint64
		var cs int64
		if tr != nil {
			id, cs = tr.newID(), tr.now()
		}
		var res []any
		res, err = s.proxy.InvokeFrom(task, "Add", int64(id), o.a, o.b)
		if tr != nil {
			s.traceCall(tr, parent, id, cs, tr.now())
		}
		if got, ok := asInt64(res); err == nil && (!ok || got != o.a+o.b) {
			err = fmt.Errorf("Add(%d, %d) returned %v", o.a, o.b, res)
		}
	case skEcho:
		var res []any
		b := s.bufs[o.a]
		res, err = s.proxy.InvokeFrom(task, "Echo", b)
		if err == nil && (len(res) != 1 || !bytesEqual(res[0], b)) {
			err = errors.New("Echo returned different bytes")
		}
	case skChurn:
		start := tr.now()
		err = s.churn(task)
		tr.record(span{Name: "remote.churn_cycle", Parent: parent, Req: parent, Start: start, End: tr.now()})
	}
	d := time.Since(t0)
	if err != nil {
		st.fail("remote-sync %s: %v", syncOpNames[o.kind], err)
	} else {
		st.calls++
		st.lat.add(int64(d))
	}
	return syncOpNames[o.kind]
}

// churn is one remote Make → invoke → ReleaseProxy cycle.
func (s *syncInst) churn(task *core.Task) error {
	res, err := s.proxy.InvokeFrom(task, "Make")
	if err != nil {
		return err
	}
	c, ok := res[0].(*core.Capability)
	if !ok || len(res) != 1 {
		return fmt.Errorf("Make returned %v", res)
	}
	if _, err := c.InvokeFrom(task, "Null"); err != nil {
		return err
	}
	if !remote.ReleaseProxy(c) {
		return errors.New("minted capability was not a wire proxy")
	}
	return nil
}

// traceCall records the spans of one traced Add: the client's call span
// and, inside it, the request path (call start → service entry), serve
// (entry → exit) and reply path (exit → client return).
func (s *syncInst) traceCall(tr *tracer, parent, id uint64, cs, ce int64) {
	tr.record(span{Name: "remote.call", ID: id, Parent: parent, Req: parent, Start: cs, End: ce})
	v, ok := s.svc.stamps.LoadAndDelete(int64(id))
	if !ok {
		return
	}
	st := v.([2]int64)
	tr.record(span{Name: "remote.request_path", Parent: id, Req: parent, Start: cs, End: st[0]})
	tr.record(span{Name: "remote.serve", Parent: id, Req: parent, Start: st[0], End: st[1]})
	tr.record(span{Name: "remote.reply_path", Parent: id, Req: parent, Start: st[1], End: ce})
}

func asInt64(res []any) (int64, bool) {
	if len(res) != 1 {
		return 0, false
	}
	v, ok := res[0].(int64)
	return v, ok
}

func runRemoteSync(cfg *config, tr *tracer, res *result) error {
	s, setupS, err := repeatSetup(setupReps, func() (*syncInst, error) { return setupSync(cfg, tr, nil) })
	if err != nil {
		return err
	}
	defer s.close()
	res.e2e["setup_s"] = setupS
	frames0 := s.frames()
	n, each, probeBudget := phases(cfg)
	run := runClosed(syncCallers, warmup, each, n, tr, func(c int, st *callerStats, tr *tracer, parent uint64) string {
		return s.do(c, s.gens[c].op(), st, tr, parent)
	})
	res.attempted, res.failed = run.attempted, run.failed
	closedE2E(res, run)
	res.layers["remote.frames_per_call"] = float64(s.frames()-frames0) / float64(max(1, run.attempted))
	if err := awaitBaseline([2]*remote.Conn{s.conn, s.srv}, s.base, 5*time.Second); err != nil {
		res.invariant("remote-sync: %v", err)
	}
	if tr == nil {
		return nil
	}
	syscallLayers(run, res.layers)
	res.layers["trace.overhead_ratio"] = overheadRatio(run)
	if err := proxyGateProbe(s.kc, tr, probeBudget); err != nil {
		res.failed++
		res.attempted++
		logFailure("remote-sync probe: %v", err)
	}
	self := tr.selfTimes()
	res.layers["core.proxy_gate_ns"] = self["core.proxy_gate"].perCall()
	res.layers["remote.request_path_ns"] = self["remote.request_path"].perCall()
	res.layers["remote.serve_ns"] = self["remote.serve"].perCall()
	res.layers["remote.reply_path_ns"] = self["remote.reply_path"].perCall()
	// The ladder residual: a traced Add's end-to-end time not covered by
	// its request, serve and reply paths.
	res.layers["remote.ladder_residual_ns"] = self["op.add"].perCall() + self["remote.call"].perCall()
	res.layers["remote.churn_cycle_ns"] = self["remote.churn_cycle"].perCall()
	res.report["ladder_ns"] = map[string]float64{
		"core.native_lrmi (see local-lrmi)": 0,
		"core.proxy_gate":                   res.layers["core.proxy_gate_ns"],
		"remote.request_path":               res.layers["remote.request_path_ns"],
		"remote.serve":                      res.layers["remote.serve_ns"],
		"remote.reply_path":                 res.layers["remote.reply_path_ns"],
		"residual":                          res.layers["remote.ladder_residual_ns"],
	}
	return nil
}

// memTarget is an in-memory proxy transport: the proxy gate with no wire.
type memTarget struct{}

func (memTarget) InvokeProxy(method string, args []any) ([]any, int64, error) { return nil, 0, nil }
func (memTarget) ProxyMethods() []string                                      { return []string{"Null"} }

// proxyGateProbe times InvokeFrom through a proxy capability whose
// target answers in memory.
func proxyGateProbe(k *core.Kernel, tr *tracer, budget time.Duration) error {
	owner, err := k.NewDomain(core.DomainConfig{Name: "probe-proxy"})
	if err != nil {
		return err
	}
	caller, err := k.NewDomain(core.DomainConfig{Name: "probe-caller"})
	if err != nil {
		return err
	}
	c, err := k.CreateProxyCapability(owner, memTarget{})
	if err != nil {
		return err
	}
	task := k.NewDetachedTask(caller, "probe")
	defer task.Close()
	return probe(tr, "core.proxy_gate", budget, 1000, func(int) error {
		_, err := c.InvokeFrom(task, "Null")
		return err
	})
}

// --- remote-batched -------------------------------------------------------

// Payload is the registered wire message the batched echoes carry.
type Payload struct {
	Seq  int64
	Data []byte
}

type batchSvc struct{}

func (batchSvc) Null() error                     { return nil }
func (batchSvc) Echo(p Payload) (Payload, error) { return p, nil }

func registerPayload(k *core.Kernel) { k.RegisterWireType("jkperf.Payload", Payload{}) }

// Call kinds of a window: 45% null, 45% 1 KiB echo, 10% 16 KiB echo.
const (
	bkNull = iota
	bkEcho1K
	bkEcho16K
)

const (
	pool1K  = 16
	pool16K = 4
)

// batchQuota has one entry: every op is a window.
var batchQuota = quotaBlock(1)

func batchGen(seed, stream uint64) *gen {
	return newGen(batchQuota, seed, stream, func(g *gen, _ uint8) op {
		o := op{n: 16 + g.rng.IntN(512-16+1)}
		g.calls = g.calls[:0]
		for i := 0; i < o.n; i++ {
			switch x := g.rng.IntN(20); {
			case x < 9:
				g.calls = append(g.calls, call{kind: bkNull})
			case x < 18:
				g.calls = append(g.calls, call{kind: bkEcho1K, idx: g.rng.IntN(pool1K)})
			default:
				g.calls = append(g.calls, call{kind: bkEcho16K, idx: g.rng.IntN(pool16K)})
			}
		}
		o.calls = g.calls
		return o
	})
}

type batchInst struct {
	*wirePair
	task *core.Task
	gen  *gen
	p1K  [][]byte
	p16K [][]byte
	futs []*core.Future
	sent []Payload
	seq  int64
}

func setupBatched(cfg *config) (*batchInst, error) {
	p, err := dialPair(batchSvc{}, registerPayload)
	if err != nil {
		return nil, err
	}
	cd, err := p.kc.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		p.close()
		return nil, err
	}
	b := &batchInst{wirePair: p, task: p.kc.NewDetachedTask(cd, "caller"), gen: batchGen(cfg.seed, 0)}
	r := newRNG(cfg.seed, 100)
	for i := 0; i < pool1K; i++ {
		b.p1K = append(b.p1K, payload(r, 1024))
	}
	for i := 0; i < pool16K; i++ {
		b.p16K = append(b.p16K, payload(r, 16<<10))
	}
	return b, nil
}

func (b *batchInst) warm() error {
	st := newCallerStats()
	b.do(op{n: 3, calls: []call{{kind: bkNull}, {kind: bkEcho1K}, {kind: bkEcho16K}}}, st, nil, 0)
	if st.failed > 0 {
		return errors.New("remote-batched: warm-up window failed")
	}
	return nil
}

func (b *batchInst) close() { b.wirePair.close() }

func (b *batchInst) payloadOf(c call) Payload {
	b.seq++
	if c.kind == bkEcho16K {
		return Payload{Seq: b.seq, Data: b.p16K[c.idx]}
	}
	return Payload{Seq: b.seq, Data: b.p1K[c.idx]}
}

// do issues one window of async calls, flushes, and waits for all of
// them; the window is one latency sample and o.n calls.
func (b *batchInst) do(o op, st *callerStats, tr *tracer, parent uint64) string {
	t0 := time.Now()
	start := tr.now()
	b.futs, b.sent = b.futs[:0], b.sent[:0]
	for _, c := range o.calls {
		if c.kind == bkNull {
			b.futs = append(b.futs, b.proxy.InvokeAsyncFrom(b.task, "Null"))
			b.sent = append(b.sent, Payload{})
			continue
		}
		p := b.payloadOf(c)
		b.futs = append(b.futs, b.proxy.InvokeAsyncFrom(b.task, "Echo", p))
		b.sent = append(b.sent, p)
	}
	issued := tr.now()
	b.conn.Flush()
	flushed := tr.now()
	var bad int64
	for i, f := range b.futs {
		res, err := f.Wait()
		if err == nil {
			err = checkFuture(f, b.sent[i], res)
		}
		if err != nil {
			bad++
			logFailure("remote-batched call %d of %d: %v", i, len(b.futs), err)
		}
	}
	d := time.Since(t0)
	if tr != nil {
		done := tr.now()
		tr.record(span{Name: "remote.window_issue", Parent: parent, Req: parent, Start: start, End: issued})
		tr.record(span{Name: "remote.window_flush", Parent: parent, Req: parent, Start: issued, End: flushed})
		tr.record(span{Name: "remote.window_wait", Parent: parent, Req: parent, Start: flushed, End: done})
	}
	st.calls += int64(len(b.futs))
	st.failed += bad
	if bad == 0 {
		st.lat.add(int64(d))
	}
	return "op.window"
}

// checkFuture checks one resolved future: resolved exactly once (its
// done channel closed and a second Wait giving the same outcome) and, for
// an echo, the payload that was sent.
func checkFuture(f *core.Future, sent Payload, res []any) error {
	select {
	case <-f.Done():
	default:
		return errors.New("future not resolved after Wait")
	}
	if !f.Resolved() {
		return errors.New("future does not report resolved")
	}
	if res2, err2 := f.Wait(); err2 != nil || len(res2) != len(res) {
		return errors.New("second Wait disagrees with the first")
	}
	if sent.Seq == 0 {
		if len(res) != 0 {
			return fmt.Errorf("Null returned %v", res)
		}
		return nil
	}
	if len(res) != 1 {
		return fmt.Errorf("Echo returned %d results", len(res))
	}
	got, ok := res[0].(Payload)
	if !ok {
		return fmt.Errorf("Echo returned %T", res[0])
	}
	if got.Seq != sent.Seq || !bytesEqual(got.Data, sent.Data) {
		return fmt.Errorf("Echo returned seq %d (%d bytes), sent seq %d (%d bytes)", got.Seq, len(got.Data), sent.Seq, len(sent.Data))
	}
	return nil
}

func runRemoteBatched(cfg *config, tr *tracer, res *result) error {
	b, setupS, err := repeatSetup(setupReps, func() (*batchInst, error) { return setupBatched(cfg) })
	if err != nil {
		return err
	}
	defer b.close()
	res.e2e["setup_s"] = setupS
	frames0 := b.frames()
	n, each, probeBudget := phases(cfg)
	run := runClosed(1, warmup, each, n, tr, func(c int, st *callerStats, tr *tracer, parent uint64) string {
		return b.do(b.gen.op(), st, tr, parent)
	})
	res.attempted, res.failed = run.attempted, run.failed
	closedE2E(res, run)
	res.layers["remote.frames_per_call"] = float64(b.frames()-frames0) / float64(max(1, run.attempted))
	if err := awaitBaseline([2]*remote.Conn{b.conn, b.srv}, b.base, 5*time.Second); err != nil {
		res.invariant("remote-batched: %v", err)
	}
	if tr == nil {
		return nil
	}
	syscallLayers(run, res.layers)
	res.layers["trace.overhead_ratio"] = overheadRatio(run)
	res.layers["remote.batch_occupancy_mean"] = occupancy(b.kc, b.ks)
	if err := b.seriProbe(tr, probeBudget, res.layers); err != nil {
		res.failed++
		res.attempted++
		logFailure("remote-batched probe: %v", err)
	}
	self := tr.selfTimes()
	res.layers["remote.window_flush_ns"] = self["remote.window_flush"].perCall()
	res.layers["remote.window_wait_ns"] = self["remote.window_wait"].perCall()
	res.layers["seri.marshal_ns"] = self["seri.marshal"].perCall()
	res.layers["seri.unmarshal_ns"] = self["seri.unmarshal"].perCall()
	return nil
}

// occupancy is the mean calls per batch frame over both kernels.
func occupancy(ks ...*core.Kernel) float64 {
	var sum, n float64
	for _, k := range ks {
		h := k.Telemetry().Snapshot().Histograms["remote.batch.occupancy"]
		sum += h.Mean * float64(h.Count)
		n += float64(h.Count)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// seriProbe marshals and unmarshals the window payload mix through the
// client kernel's registry: 9 of every 11 payloads 1 KiB, 2 of 11 16 KiB.
func (b *batchInst) seriProbe(tr *tracer, budget time.Duration, layers map[string]float64) error {
	reg := b.kc.SeriRegistry()
	pick := func(i int) Payload {
		if i%11 < 9 {
			return Payload{Seq: int64(i + 1), Data: b.p1K[i%pool1K]}
		}
		return Payload{Seq: int64(i + 1), Data: b.p16K[i%pool16K]}
	}
	const batch = 11
	var bytes, calls int64
	encoded := make([][]byte, batch)
	deadline := time.Now().Add(budget / 2)
	for i := 0; time.Now().Before(deadline); i += batch {
		start := tr.now()
		for j := range encoded {
			data, err := seri.Marshal(reg, pick(i+j))
			if err != nil {
				return err
			}
			encoded[j] = data
		}
		mid := tr.now()
		for j, data := range encoded {
			v, err := seri.Unmarshal(reg, data)
			if err != nil {
				return err
			}
			if got, ok := v.(Payload); !ok || got.Seq != pick(i+j).Seq || !bytesEqual(got.Data, pick(i+j).Data) {
				return errors.New("seri round trip changed the payload")
			}
			bytes += int64(len(data))
			calls++
		}
		tr.record(span{Name: "seri.marshal", Start: start, End: mid, N: batch})
		tr.record(span{Name: "seri.unmarshal", Start: mid, End: tr.now(), N: batch})
	}
	layers["seri.bytes_per_call"] = float64(bytes) / float64(max(1, calls))

	// Allocations of one marshal+unmarshal, untimed.
	const allocRounds = 2200
	before := takeSnap()
	for i := 0; i < allocRounds; i++ {
		data, err := seri.Marshal(reg, pick(i))
		if err != nil {
			return err
		}
		if _, err := seri.Unmarshal(reg, data); err != nil {
			return err
		}
	}
	layers["seri.allocs_per_call"] = float64(takeSnap().sub(before).mallocs) / allocRounds
	return nil
}
