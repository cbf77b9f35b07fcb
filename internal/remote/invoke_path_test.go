package remote

import (
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"jkernel/internal/core"
)

// frameCounts reads k's invoke/reply frame counters, by message name, and
// its batch occupancy histogram: invoke frames sent ("occupancy.frames")
// and the calls they carried ("occupancy.calls").
func frameCounts(k *core.Kernel) map[string]int64 {
	reg := k.Telemetry()
	out := map[string]int64{}
	for _, name := range []string{"frames_out.invoke", "frames_in.reply", "frames_in.invoke", "frames_out.reply"} {
		out[name] = reg.Counter("remote." + name).Value()
	}
	occ := reg.Histogram("remote.batch.occupancy")
	out["occupancy.frames"] = occ.Count()
	out["occupancy.calls"] = int64(math.Round(occ.Mean() * float64(occ.Count())))
	return out
}

// frameDelta is frameCounts(k) minus before, keeping only what moved.
func frameDelta(k *core.Kernel, before map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for name, n := range frameCounts(k) {
		if n != before[name] {
			d[name] = n - before[name]
		}
	}
	return d
}

// lrmiCalls reads k's count of cross-domain calls.
func lrmiCalls(k *core.Kernel) int64 {
	return k.Telemetry().Counter("core.lrmi.calls").Value()
}

// queued reports how many calls wait in b's queue.
func queued(b *batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q)
}

func wantFrames(t *testing.T, what string, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: frames %v, want %v", what, got, want)
	}
	for name, n := range want {
		if got[name] != n {
			t.Fatalf("%s: frames %v, want %v", what, got, want)
		}
	}
}

// Sync and async calls share one invoke path, and it must keep the wire
// shapes: a lone sync call is one msgInvoke carrying one call, answered by
// one msgReply; calls flushed together leave in one msgInvoke answered by
// one msgReply; and a traced sync call still carries its trace block to
// the serving kernel's span. The wire's own round trips are calls on the
// peer's bootstrap, so Import, Ping and the first Methods() of an inline
// import each cost one msgInvoke and one msgReply as well, and no frame of
// any other request type crosses the wire. Serving them makes no LRMI, so
// they add no LRMI count and no call-graph edge on either kernel.
func TestInvokeFrameShapes(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	p.export(t, "maker", &makerSvc{k: p.server, d: p.serverDom})
	waitHello(t, p.conn, serverConn(t, p.ln))

	oneRoundTrip := func(what string, op func()) {
		t.Helper()
		cBefore, sBefore := frameCounts(p.client), frameCounts(p.server)
		cLRMI, sLRMI := lrmiCalls(p.client), lrmiCalls(p.server)
		op()
		wantFrames(t, "client, "+what, frameDelta(p.client, cBefore),
			map[string]int64{"frames_out.invoke": 1, "frames_in.reply": 1, "occupancy.frames": 1, "occupancy.calls": 1})
		wantFrames(t, "server, "+what, frameDelta(p.server, sBefore),
			map[string]int64{"frames_in.invoke": 1, "frames_out.reply": 1})
		if c, s := lrmiCalls(p.client)-cLRMI, lrmiCalls(p.server)-sLRMI; c != 0 || s != 0 {
			t.Fatalf("%s made LRMI calls: client %d, server %d, want 0", what, c, s)
		}
	}
	var proxy, maker *core.Capability
	oneRoundTrip("Import", func() {
		var err error
		if proxy, err = p.conn.Import("echo"); err != nil {
			t.Fatal(err)
		}
	})
	oneRoundTrip("Ping", func() {
		if err := p.conn.Ping(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	var err error
	if maker, err = p.conn.Import("maker"); err != nil {
		t.Fatal(err)
	}
	res, err := maker.InvokeFrom(p.task, "MakeCounter")
	if err != nil {
		t.Fatal(err)
	}
	counter := res[0].(*core.Capability)
	oneRoundTrip("first Methods() of an inline import", func() {
		if ms := counter.Methods(); len(ms) != 1 || ms[0] != "Add" {
			t.Fatalf("inline import manifest: %v, want [Add]", ms)
		}
	})

	cBefore, sBefore := frameCounts(p.client), frameCounts(p.server)
	if res, err := proxy.InvokeFrom(p.task, "Echo", "lone"); err != nil || res[0] != any("lone") {
		t.Fatalf("sync Echo: %#v %v", res, err)
	}
	wantFrames(t, "client, lone sync call", frameDelta(p.client, cBefore),
		map[string]int64{"frames_out.invoke": 1, "frames_in.reply": 1, "occupancy.frames": 1, "occupancy.calls": 1})
	wantFrames(t, "server, lone sync call", frameDelta(p.server, sBefore),
		map[string]int64{"frames_in.invoke": 1, "frames_out.reply": 1})

	// Park the flusher on the frame-write lock with one call in hand, so
	// the next k calls all queue behind it and leave together: a one-call
	// frame, then one frame of k calls.
	const k = 5
	cBefore, sBefore = frameCounts(p.client), frameCounts(p.server)
	p.conn.wmu.Lock()
	futs := []*core.Future{proxy.InvokeAsyncFrom(p.task, "Sum", int64(0), int64(1))}
	for deadline := time.Now().Add(5 * time.Second); queued(p.conn.batch) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			p.conn.wmu.Unlock()
			t.Fatal("flusher never took the first call")
		}
	}
	for i := 1; i <= k; i++ {
		futs = append(futs, proxy.InvokeAsyncFrom(p.task, "Sum", int64(i), int64(1)))
	}
	p.conn.wmu.Unlock()
	p.conn.Flush()
	for i, f := range futs {
		if res, err := f.Wait(); err != nil || res[0] != any(int64(i+1)) {
			t.Fatalf("async Sum %d: %#v %v", i, res, err)
		}
	}
	wantFrames(t, "client, batched async calls", frameDelta(p.client, cBefore),
		map[string]int64{"frames_out.invoke": 2, "frames_in.reply": 2, "occupancy.frames": 2, "occupancy.calls": 1 + k})
	wantFrames(t, "server, batched async calls", frameDelta(p.server, sBefore),
		map[string]int64{"frames_in.invoke": 2, "frames_out.reply": 2})

	tc := p.task.BeginTrace()
	defer p.task.EndTrace()
	cBefore = frameCounts(p.client)
	if _, err := proxy.InvokeFrom(p.task, "Echo", "traced"); err != nil {
		t.Fatal(err)
	}
	wantFrames(t, "client, traced sync call", frameDelta(p.client, cBefore),
		map[string]int64{"frames_out.invoke": 1, "frames_in.reply": 1, "occupancy.frames": 1, "occupancy.calls": 1})
	clientSpans := map[uint64]bool{}
	for _, s := range p.client.Tracer().TraceSpans(tc.TraceID) {
		if s.Kind == "client" {
			clientSpans[s.SpanID] = true
		}
	}
	var served bool
	for _, s := range p.server.Tracer().TraceSpans(tc.TraceID) {
		if s.Kind == "server" && clientSpans[s.Parent] {
			served = true
		}
	}
	if !served {
		t.Fatal("traced sync call: no server span parented on the caller's client span")
	}
	for _, k := range []*core.Kernel{p.client, p.server} {
		for _, name := range []string{"remote.frames_in.other", "remote.frames_out.other"} {
			if n := k.Telemetry().Counter(name).Value(); n != 0 {
				t.Fatalf("%s = %d, want 0", name, n)
			}
		}
		for _, e := range k.Telemetry().Snapshot().CallGraph {
			if e.Caller == e.Callee {
				t.Fatalf("call graph has a self-edge %s -> %s (%d calls)", e.Caller, e.Callee, e.Calls)
			}
		}
	}
}

// Mixed sync, batched and churn traffic on a loopback pair leaves no
// goroutine behind once both ends close: read loops, flushers, executor
// workers and frame handlers all exit with their connection.
func TestConnGoroutinesExitOnClose(t *testing.T) {
	server := core.MustNew(core.Options{})
	client := core.MustNew(core.Options{})
	sd, err := server.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := client.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	for name, svc := range map[string]any{
		"echo":  echoSvc{},
		"maker": &makerSvc{k: server, d: sd},
	} {
		c, err := server.CreateNativeCapability(sd, svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Export(name, c); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	sock := filepath.Join(t.TempDir(), "leak.sock")
	ln, err := Listen(server, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(client, "unix", sock)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	echo, err := conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	maker, err := conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	run := func(body func(task *core.Task) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := client.NewDetachedTask(cd, "leak")
			defer task.Close()
			if err := body(task); err != nil {
				errs <- err
			}
		}()
	}
	run(func(task *core.Task) error { // sync
		for i := 0; i < 200; i++ {
			if _, err := echo.InvokeFrom(task, "Echo", "s"); err != nil {
				return err
			}
		}
		return nil
	})
	run(func(task *core.Task) error { // batched
		for w := 0; w < 20; w++ {
			futs := make([]*core.Future, 0, 16)
			for i := 0; i < 16; i++ {
				futs = append(futs, echo.InvokeAsyncFrom(task, "Null"))
			}
			conn.Flush()
			if err := core.WaitAll(futs...); err != nil {
				return err
			}
		}
		return nil
	})
	run(func(task *core.Task) error { // churn
		for i := 0; i < 100; i++ {
			res, err := maker.InvokeFrom(task, "MakeCounter")
			if err != nil {
				return err
			}
			ctr := res[0].(*core.Capability)
			if _, err := ctr.InvokeFrom(task, "Add", int64(1)); err != nil {
				return err
			}
			ReleaseProxy(ctr)
		}
		return nil
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	conn.Close()
	ln.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d after close, %d at baseline\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A bootstrap call answers on its own, even when it leaves in the same
// msgInvoke frame as a user call that blocks: a scheduler's health probe
// (Ping) or a handoff's Redeem must never wait for a slow user call it
// happened to share a flush with.
func TestBootstrapCallNotHeldBySlowFrameMate(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	block := &blockSvc{gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(block.gate) })
	defer release()
	p.export(t, "block", block)
	waitHello(t, p.conn, serverConn(t, p.ln))
	echo, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := p.conn.Import("block")
	if err != nil {
		t.Fatal(err)
	}

	// Park the flusher on the frame-write lock with one call in hand, so
	// the blocking call and the Ping queue behind it and leave together.
	sBefore := frameCounts(p.server)
	p.conn.wmu.Lock()
	first := echo.InvokeAsyncFrom(p.task, "Null")
	for deadline := time.Now().Add(5 * time.Second); queued(p.conn.batch) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			p.conn.wmu.Unlock()
			t.Fatal("flusher never took the first call")
		}
	}
	held := blocker.InvokeAsyncFrom(p.task, "Wait")
	pinged := make(chan error, 1)
	go func() { pinged <- p.conn.Ping(2 * time.Second) }()
	for deadline := time.Now().Add(5 * time.Second); queued(p.conn.batch) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			p.conn.wmu.Unlock()
			t.Fatal("Ping never queued beside the blocking call")
		}
	}
	p.conn.wmu.Unlock()

	if err := <-pinged; err != nil {
		t.Fatalf("Ping sharing a frame with a blocked call: %v", err)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := frameDelta(p.server, sBefore)["frames_in.invoke"]; got != 2 {
		t.Fatalf("server read %d invoke frames, want 2 (the Ping shared the blocked call's)", got)
	}
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatalf("blocked call after release: %v", err)
	}
}
