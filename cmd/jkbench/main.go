// Command jkbench regenerates the paper's evaluation tables (1-6) in their
// original row/column format, alongside the published numbers, so shape
// comparisons are direct; table 7 extends the evaluation to the remote
// kernels subsystem (local LRMI vs cross-process capability invocation,
// the Table 2-vs-3 contrast made concrete), table 8 measures sync
// per-call against async-batched remote invocation, and table 9 measures
// capability churn (export → inline import → invoke → release) and
// verifies the per-connection tables return to baseline — the export-GC
// leak gate as a benchmark. Table 10 measures telemetry overhead, table
// 11 measures the three-party handoff: a re-exported capability called
// through the middleman relay vs over the shortened (redeemed) path vs a
// directly-dialed baseline, and table 12 measures the wire hot path
// itself — µs/call AND allocs/call for sync, async-batched, and
// 1 KiB-payload invokes, with the generated marshaler toggled against the
// reflect walker. Table 13 is the cluster load harness: thousands of
// concurrent HTTP clients against fixed-capacity servlet shards, served
// by a scheduled 4-worker pool vs a single worker — throughput and
// p50/p99, with the speedup gated by -cluster-gate. README explains what
// each table measures. The fixtures and timed bodies live in
// internal/benchfix, shared with the Go benchmarks (bench_test.go).
//
//	jkbench                     # all tables
//	jkbench -table 4            # one table
//	jkbench -table 8,11,12,13   # several (the perf-gate baseline set)
//	jkbench -quick              # fewer iterations (CI-friendly)
//	jkbench -json BENCH.json    # also write measured rows as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jkernel/internal/benchfix"
	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/oskit"
	"jkernel/internal/remote"
	"jkernel/internal/seri"
	"jkernel/internal/ukern"
	"jkernel/internal/vmkit"
)

var (
	tableFlag = flag.String("table", "", "comma-separated tables to run (1-13), e.g. 8 or 8,11,12; empty = all")
	quick     = flag.Bool("quick", false, "fewer iterations")
	jsonFlag  = flag.String("json", "", "write measured rows (remote tables 7-13) as JSON to this file")
	gateFlag  = flag.Float64("telemetry-gate", 0,
		"fail (exit 1) if table 10's telemetry on/off ratio exceeds this (0 = no gate; CI uses 1.10)")
	clusterGateFlag = flag.Float64("cluster-gate", 0,
		"fail (exit 1) if table 13's 4-worker/1-worker throughput ratio falls below this (0 = no gate; CI uses 3.0)")
)

func main() {
	oskit.MaybeRunChild()
	remote.MaybeRunWorker(remoteBenchSetup)
	flag.Parse()
	want := map[int]bool{}
	for _, s := range strings.Split(*tableFlag, ",") {
		s = strings.TrimSpace(s)
		if s == "" || s == "0" {
			continue
		}
		n, err := strconv.Atoi(s)
		check(err)
		want[n] = true
	}
	run := func(n int, f func()) {
		if len(want) == 0 || want[n] {
			f()
		}
	}
	run(1, table1)
	run(2, table2)
	run(3, table3)
	run(4, table4)
	run(5, table5)
	run(6, table6)
	run(7, table7)
	run(8, table8)
	run(9, table9)
	run(10, table10)
	run(11, table11)
	run(12, table12)
	run(13, table13)
	if *jsonFlag != "" {
		writeBenchJSON(*jsonFlag)
	}
	if *gateFlag > 0 && telemetryRatio > *gateFlag {
		fmt.Fprintf(os.Stderr, "jkbench: telemetry overhead gate FAILED: on/off ratio %.3f > %.3f\n",
			telemetryRatio, *gateFlag)
		os.Exit(1)
	}
	if *clusterGateFlag > 0 && clusterRatio < *clusterGateFlag {
		fmt.Fprintf(os.Stderr, "jkbench: cluster throughput gate FAILED: 4-worker/1-worker ratio %.2f < %.2f\n",
			clusterRatio, *clusterGateFlag)
		os.Exit(1)
	}
}

// --- machine-readable results (the BENCH_*.json perf trajectory) -----------

// benchRow is one measured configuration.
type benchRow struct {
	Table     int     `json:"table"`
	Name      string  `json:"name"`
	MicrosPer float64 `json:"us_per_op,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	AllocsPer float64 `json:"allocs_per_op,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	// Load-test latency columns (table 13). Informational: tail latency
	// under saturation is queue-shaped, so the perf gate reads the
	// throughput column instead.
	MillisP50 float64 `json:"p50_ms,omitempty"`
	MillisP99 float64 `json:"p99_ms,omitempty"`
}

var benchRows []benchRow

// record captures a measured row for the JSON artifact.
func record(table int, name string, us float64) {
	row := benchRow{Table: table, Name: name, MicrosPer: us}
	if us > 0 {
		row.OpsPerSec = 1e6 / us
	}
	benchRows = append(benchRows, row)
}

// recordAllocs is record plus an allocations-per-op column (table 12).
func recordAllocs(table int, name string, us, allocs float64) {
	row := benchRow{Table: table, Name: name, MicrosPer: us, AllocsPer: allocs}
	if us > 0 {
		row.OpsPerSec = 1e6 / us
	}
	benchRows = append(benchRows, row)
}

// recordRatio captures a derived speedup row.
func recordRatio(table int, name string, ratio float64) {
	benchRows = append(benchRows, benchRow{Table: table, Name: name, Ratio: ratio})
}

func writeBenchJSON(path string) {
	doc := struct {
		Generated string     `json:"generated"`
		Quick     bool       `json:"quick"`
		Rows      []benchRow `json:"rows"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Quick:     *quick,
		Rows:      benchRows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	check(err)
	check(os.WriteFile(path, append(data, '\n'), 0o644))
}

func iters(base int) int {
	if *quick {
		return base / 10
	}
	return base
}

// measure times body(n), after a warm-up of n/10, and returns µs per
// iteration.
func measure(n int, body benchfix.Body) float64 {
	check(body(n / 10))
	start := time.Now()
	check(body(n))
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// measureAllocs times body(n) and returns µs and heap allocations per
// iteration. The allocation count is process-wide (Mallocs delta across
// the run), deliberately: for the wire hot path the number that matters
// is every allocation a call costs on either side of the in-process
// loopback — read loops, flusher, and executor included.
func measureAllocs(n int, body benchfix.Body) (usPer, allocsPer float64) {
	check(body(n / 10)) // warm-up; also primes the frame-buffer pools
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	check(body(n))
	usPer = float64(time.Since(start).Microseconds()) / float64(n)
	runtime.ReadMemStats(&m1)
	return usPer, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// measureEach times f once per iteration.
func measureEach(n int, f func() error) float64 {
	return measure(n, func(n int) error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
}

func newVM(profile vmkit.Profile) *benchfix.VM {
	f, err := benchfix.NewVM(profile)
	check(err)
	return f
}

// newPair builds the two-kernel TCP loopback pair of Tables 7-12.
func newPair(opts core.Options) *benchfix.Pair {
	p, err := benchfix.NewPair("tcp", opts)
	check(err)
	return p
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "jkbench:", err)
		os.Exit(1)
	}
}

// --- tables ----------------------------------------------------------------

func table1() {
	fmt.Println("Table 1. Cost of null method invocations (in µs)")
	fmt.Println("  paper columns: MS-VM / Sun-VM on 200MHz Pentium-Pro;")
	fmt.Println("  ours: profile vm-A (MS-VM cost shape) / vm-B (Sun-VM cost shape)")
	fa := newVM(vmkit.ProfileA)
	defer fa.Close()
	fb := newVM(vmkit.ProfileB)
	defer fb.Close()
	n := iters(300000)
	rows := []struct {
		name           string
		paperA, paperB float64
		method         string
	}{
		{"Regular method invocation", 0.04, 0.03, "runRegular"},
		{"Interface method invocation", 0.54, 0.05, "runIface"},
		{"Acquire/release lock", 0.20, 1.91, "runLock"},
		{"J-Kernel LRMI", 2.22, 5.41, "runLRMI"},
	}
	fmt.Printf("  %-30s %10s %10s %10s %10s\n", "Operation", "paper-MS", "paper-Sun", "vm-A", "vm-B")
	for _, r := range rows {
		nn := n
		if r.method == "runLRMI" {
			nn = iters(50000)
		}
		a := measure(nn, fa.Loop(r.method))
		b := measure(nn, fb.Loop(r.method))
		fmt.Printf("  %-30s %10.2f %10.2f %10.3f %10.3f\n", r.name, r.paperA, r.paperB, a, b)
	}
	// Thread info lookup is measured outside bytecode, as in the stubs.
	la := measure(iters(2000000), fa.ThreadLookup())
	lb := measure(iters(2000000), fb.ThreadLookup())
	fmt.Printf("  %-30s %10.2f %10.2f %10.3f %10.3f\n", "Thread info lookup", 0.55, 0.29, la, lb)
	fmt.Println()
}

func table2() {
	fmt.Println("Table 2. Local RPC costs using standard OS mechanisms (in µs)")
	fmt.Printf("  %-30s %10s %10s\n", "Form of RPC", "paper", "measured")

	pipe, err := oskit.StartPipeServer()
	check(err)
	nt := measureEach(iters(20000), func() error {
		_, err := pipe.RoundTrip([]byte{1})
		return err
	})
	pipe.Close()
	fmt.Printf("  %-30s %10.0f %10.2f\n", "NT-RPC (pipe, 2 processes)", 109.0, nt)

	tcp, err := oskit.StartTCPServer()
	check(err)
	com := measureEach(iters(20000), func() error {
		_, err := tcp.RoundTrip([]byte{1})
		return err
	})
	tcp.Close()
	fmt.Printf("  %-30s %10.0f %10.2f\n", "COM out-of-proc (TCP loopback)", 99.0, com)

	srv := oskit.InProc()
	var sink byte
	inproc := measureEach(iters(20000000), func() error {
		sink = srv.Null(1)
		return nil
	})
	_ = sink
	fmt.Printf("  %-30s %10.2f %10.4f\n", "COM in-proc (interface call)", 0.03, inproc)

	f := newVM(vmkit.ProfileA)
	defer f.Close()
	lrmi := measure(iters(50000), f.Loop("runLRMI"))
	fmt.Printf("  %-30s %10.2f %10.2f   (for comparison)\n", "J-Kernel LRMI", 2.22, lrmi)
	fmt.Println()
}

func table3() {
	fmt.Println("Table 3. Cost of a double thread switch (in µs)")
	fmt.Printf("  %-38s %8s %10s\n", "Configuration", "paper", "measured")
	pinned := measure(iters(100000), benchfix.PingPong(true))
	fmt.Printf("  %-38s %8.1f %10.2f\n", "OS threads (NT-base; JVM thread model)", 8.6, pinned)
	green := measure(iters(500000), benchfix.PingPong(false))
	fmt.Printf("  %-38s %8s %10.2f   (Go-native ablation)\n", "goroutines, unpinned", "-", green)
	f := newVM(vmkit.ProfileA)
	defer f.Close()
	lrmi := measure(iters(50000), f.Loop("runLRMI"))
	fmt.Printf("  %-38s %8s %10.2f   (what segments avoid paying)\n", "J-Kernel LRMI, for scale", "-", lrmi)
	fmt.Println()
}

func table4() {
	fmt.Println("Table 4. Cost of argument copying (in µs per LRMI)")
	fmt.Println("  paper columns are MS-VM serialization / fast-copy")
	f := newVM(vmkit.ProfileA)
	defer f.Close()
	shapes := []struct {
		name                string
		count, size         int
		paperSer, paperFast float64
	}{
		{"1 x 10 bytes", 1, 10, 104, 4.8},
		{"1 x 100 bytes", 1, 100, 158, 7.7},
		{"10 x 10 bytes", 10, 10, 193, 23.3},
		{"1 x 1000 bytes", 1, 1000, 633, 19.2},
	}
	fmt.Printf("  %-16s %10s %10s %12s %12s\n", "Argument", "paper-ser", "paper-fast", "ser", "fast")
	for _, s := range shapes {
		ser, err := f.ArgCopy(false, s.count, s.size)
		check(err)
		fast, err := f.ArgCopy(true, s.count, s.size)
		check(err)
		n := iters(20000)
		fmt.Printf("  %-16s %10.1f %10.1f %12.2f %12.2f\n", s.name, s.paperSer, s.paperFast,
			measure(n, ser), measure(n, fast))
	}
	fmt.Println()
}

func table5() {
	fmt.Println("Table 5. HTTP server throughput (pages/second)")
	fmt.Println("  8 concurrent clients over loopback TCP, in-memory documents")
	fmt.Printf("  %-10s | %7s %7s %7s | %9s %9s %9s\n",
		"page size", "p-IIS", "p-JWS", "p-IIS+JK", "static", "jws", "bridge")
	paper := map[int][3]float64{
		10:   {801, 122, 662},
		100:  {790, 121, 640},
		1000: {759, 96, 616},
	}
	for _, size := range []int{10, 100, 1000} {
		w, err := benchfix.NewWeb(size)
		check(err)
		static := throughput(httpServe(httpd.StaticHandler(w.Doc)))
		br := throughput(httpServe(w.Bridge))
		jt := throughput(w.JWS.Serve)

		p := paper[size]
		fmt.Printf("  %-10s | %7.0f %7.0f %7.0f | %9.0f %9.0f %9.0f\n",
			fmt.Sprintf("%d bytes", size), p[0], p[1], p[2], static, jt, br)
	}
	fmt.Println()
}

// httpServe serves h with net/http.
func httpServe(h http.Handler) func(net.Listener) error {
	return func(ln net.Listener) error { return (&http.Server{Handler: h}).Serve(ln) }
}

// throughput measures pages/sec through a real loopback listener with 8
// concurrent keep-alive clients, like the paper's setup. serve runs the
// server on the listener until the listener closes. Only 200 responses
// count: a failed request or any other status fails the table.
func throughput(serve func(net.Listener) error) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go serve(ln)
	defer ln.Close()
	url := "http://" + ln.Addr().String() + "/index.html"

	dur := 600 * time.Millisecond
	if *quick {
		dur = 200 * time.Millisecond
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 8)
	stop := time.Now().Add(dur)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 2}
			defer transport.CloseIdleConnections()
			client := &http.Client{Transport: transport}
			for time.Now().Before(stop) {
				resp, err := client.Get(url)
				if err != nil {
					errs[c] = err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
				}
				if err != nil {
					errs[c] = err
					return
				}
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		check(fmt.Errorf("table 5: %d of %d clients failed, first: %w", len(failed), len(errs), failed[0]))
	}
	return float64(total.Load()) / dur.Seconds()
}

func table6() {
	fmt.Println("Table 6. Comparison with selected kernels (in µs)")
	fmt.Printf("  %-34s %8s %10s\n", "System / operation", "paper", "measured")
	k := ukern.NewKernel()

	l4 := k.NewL4Pair()
	v := measureEach(iters(200000), func() error {
		_, err := l4.Call(1)
		return err
	})
	l4.Close()
	fmt.Printf("  %-34s %8.2f %10.2f\n", "L4: round-trip IPC", 1.82, v)

	exo := k.NewExoPair()
	v = measureEach(iters(500000), func() error {
		_, err := exo.Call(1)
		return err
	})
	fmt.Printf("  %-34s %8.2f %10.2f\n", "Exokernel: protected ctl transfer", 2.40, v)

	eros := k.NewErosPair()
	v = measureEach(iters(200000), func() error {
		_, err := eros.Call(1)
		return err
	})
	eros.Close()
	fmt.Printf("  %-34s %8.2f %10.2f\n", "Eros: round-trip IPC", 4.90, v)

	f := newVM(vmkit.ProfileA)
	defer f.Close()
	v = measure(iters(30000), f.Loop("runLRMI3"))
	fmt.Printf("  %-34s %8.2f %10.2f\n", "J-Kernel: invocation with 3 args", 3.77, v)
	fmt.Println()
}

// --- table 7: remote kernels (beyond the paper) ----------------------------

// remoteBenchSetup is the worker-kernel body for the cross-process rows.
func remoteBenchSetup(k *core.Kernel) error {
	d, err := k.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		return err
	}
	cap, err := k.CreateNativeCapability(d, benchfix.NullSvc{})
	if err != nil {
		return err
	}
	if err := k.Export("null", cap); err != nil {
		return err
	}
	// Table 13's workers additionally carry the control plane's deployer.
	return clusterBenchWorker(k)
}

// workerNull starts one worker process (remoteBenchSetup) and imports its
// null export over a unix socket from kernel k: the cross-process rows of
// Tables 7 and 8. The caller closes the conn, then the pool.
func workerNull(k *core.Kernel) (*remote.Pool, *remote.Conn, *core.Capability) {
	pool, err := remote.StartPool(remote.PoolOptions{Workers: 1})
	check(err)
	conn, err := pool.Worker(0).Dial(k, 10*time.Second)
	check(err)
	proxy, err := conn.Import("null")
	check(err)
	return pool, conn, proxy
}

// table7 contrasts local LRMI with remote (cross-kernel) capability
// invocation, the concrete version of the paper's Table 2-vs-3 argument:
// LRMI stays ~an order of magnitude under the cross-process wire, which
// is why domains share a kernel when they can and shard to worker kernels
// only for cores and crash isolation.
func table7() {
	fmt.Println("Table 7. Remote kernels: null capability invocation (in µs; beyond the paper)")
	fmt.Printf("  %-46s %10s\n", "Configuration", "measured")
	row := func(name string, us float64) {
		fmt.Printf("  %-46s %10.2f\n", name, us)
		record(7, name, us)
	}

	// Local rows: the VM LRMI (Table 1's row) and the native-path LRMI.
	f := newVM(vmkit.ProfileA)
	defer f.Close()
	row("J-Kernel LRMI (VM, same kernel)", measure(iters(50000), f.Loop("runLRMI")))

	kl := core.MustNew(core.Options{})
	sd, err := kl.NewDomain(core.DomainConfig{Name: "s"})
	check(err)
	cd, err := kl.NewDomain(core.DomainConfig{Name: "c"})
	check(err)
	lcap, err := kl.CreateNativeCapability(sd, benchfix.NullSvc{})
	check(err)
	ltask := kl.NewDetachedTask(cd, "bench")
	defer ltask.Close()
	row("native LRMI (Go, same kernel)", measure(iters(200000), benchfix.SyncNull(lcap, ltask)))

	// In-process wire row: second kernel, same process, TCP loopback.
	p := newPair(core.Options{})
	inproc := measure(iters(20000), benchfix.SyncNull(p.Null, p.Task))
	p.Close()
	row("remote null call (2nd kernel, TCP loopback)", inproc)

	// Cross-process row: a real worker process behind a unix socket.
	pool, wconn, wproxy := workerNull(kl)
	defer pool.Close()
	defer wconn.Close()
	row("remote null call (worker process, unix socket)", measure(iters(20000), benchfix.SyncNull(wproxy, ltask)))
	fmt.Println()
}

// --- table 8: sync vs async-batched remote invocation ----------------------

// batchWindow is how many async null calls one batched wave starts before
// it flushes and joins them.
const batchWindow = 512

// table8 measures what batching buys on the wire: the same remote null
// call issued synchronously (one frame and one round trip per call, the
// Table 7 baseline) against async futures coalesced into multi-invoke
// frames. The gap is the per-frame overhead — syscalls, wakeups, reply
// dispatch — amortized over a whole batch, the wire-level version of the
// paper's "one large object beats many small ones" (Table 4).
func table8() {
	fmt.Println("Table 8. Remote kernels: sync vs async-batched null calls (in µs/call; beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "calls/sec")
	row := func(name string, us float64) {
		fmt.Printf("  %-52s %10.2f %12.0f\n", name, us, 1e6/us)
		record(8, name, us)
	}

	// In-process second kernel over TCP loopback.
	p := newPair(core.Options{})
	syncLoop := measure(iters(20000), benchfix.SyncNull(p.Null, p.Task))
	row("sync per-call (2nd kernel, TCP loopback)", syncLoop)
	asyncLoop := measure(iters(200000), benchfix.Batched(p.Conn, p.Null, p.Task, batchWindow, "Null"))
	row("async batched (2nd kernel, TCP loopback)", asyncLoop)
	p.Close()

	// Cross-process: a real worker behind a unix socket.
	kl := core.MustNew(core.Options{})
	cd, err := kl.NewDomain(core.DomainConfig{Name: "app"})
	check(err)
	task := kl.NewDetachedTask(cd, "bench")
	defer task.Close()
	pool, wconn, wproxy := workerNull(kl)
	defer pool.Close()
	defer wconn.Close()
	syncCross := measure(iters(20000), benchfix.SyncNull(wproxy, task))
	row("sync per-call (worker process, unix socket)", syncCross)
	asyncCross := measure(iters(200000), benchfix.Batched(wconn, wproxy, task, batchWindow, "Null"))
	row("async batched (worker process, unix socket)", asyncCross)

	fmt.Printf("  %-52s %9.1fx\n", "batching speedup (TCP loopback)", syncLoop/asyncLoop)
	fmt.Printf("  %-52s %9.1fx\n", "batching speedup (worker process)", syncCross/asyncCross)
	recordRatio(8, "batching speedup (TCP loopback)", syncLoop/asyncLoop)
	recordRatio(8, "batching speedup (worker process)", syncCross/asyncCross)
	fmt.Println()
}

// --- table 9: capability churn and table hygiene ---------------------------

// benchMakerSvc mints a fresh capability per call — the churn workload's
// server half: every cycle creates a new gate, exports it inline, and
// expects release (or revocation) to return the tables to baseline.
type benchMakerSvc struct {
	k *core.Kernel
	d *core.Domain
}

// Make returns a fresh null-service capability.
func (m *benchMakerSvc) Make() (*core.Capability, error) {
	return m.k.CreateNativeCapability(m.d, benchfix.NullSvc{})
}

// table9 measures the full capability lifecycle on the wire: mint a
// capability remotely, import it inline (no manifest), invoke it, release
// it — then verifies the reference-counted export GC actually collected
// everything, on both ends of the connection. The leaked-entries rows are
// the benchmark-shaped version of the churn regression test: any value
// above zero is a table leak.
func table9() {
	fmt.Println("Table 9. Remote kernels: capability churn and table hygiene (beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/cycle", "cycles/sec")

	p := newPair(core.Options{})
	defer p.Close()
	proxy, err := p.Export("maker", &benchMakerSvc{k: p.Server, d: p.Svc})
	check(err)
	base := p.Tables()
	mintBase := p.Svc.CreatedCapabilities()

	us := measureEach(iters(20000), func() error {
		res, err := proxy.InvokeFrom(p.Task, "Make")
		if err != nil {
			return err
		}
		cap := res[0].(*core.Capability)
		if _, err := cap.InvokeFrom(p.Task, "Null"); err != nil {
			return err
		}
		remote.ReleaseProxy(cap)
		return nil
	})
	fmt.Printf("  %-52s %10.2f %12.0f\n", "churn cycle: make+invoke+release (TCP loopback)", us, 1e6/us)
	record(9, "churn cycle: make+invoke+release (TCP loopback)", us)

	// Leak gate: once the release sweep drains, both ends hold exactly
	// their post-import tables again.
	leaked := p.Settle(base, 10*time.Second)
	clientLeak, serverLeak := float64(leaked[0]), float64(leaked[1])
	// Gate leak: every minted capability was released, so once the GC
	// runs the minting domain holds only its exports again.
	var gateLeak float64
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		gateLeak = float64(p.Svc.CreatedCapabilities() - mintBase)
		if gateLeak == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("  %-52s %10.0f\n", "post-churn leaked table entries, client (want 0)", clientLeak)
	fmt.Printf("  %-52s %10.0f\n", "post-churn leaked table entries, server (want 0)", serverLeak)
	fmt.Printf("  %-52s %10.0f\n", "post-churn leaked gates, server (want 0)", gateLeak)
	recordRatio(9, "post-churn leaked table entries (client)", clientLeak)
	recordRatio(9, "post-churn leaked table entries (server)", serverLeak)
	recordRatio(9, "post-churn leaked gates (server)", gateLeak)
	fmt.Println()
}

// --- table 10: telemetry overhead ------------------------------------------

// telemetryRatio is table 10's measured on/off ratio, checked against
// -telemetry-gate in main after the JSON artifact is written.
var telemetryRatio float64

// table10 measures what the observability layer costs on the hottest wire
// path: the async-batched null call of Table 8, with telemetry enabled
// (the default — frame counters, latency histograms, a client span per
// call) against a kernel built with DisableTelemetry. Each configuration
// runs three times interleaved and keeps its best, so the ratio compares
// steady states rather than scheduler noise.
func table10() {
	fmt.Println("Table 10. Telemetry overhead on async-batched null calls (in µs/call; beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "calls/sec")

	bench := func(disable bool) float64 {
		p := newPair(core.Options{DisableTelemetry: disable})
		defer p.Close()
		return measure(iters(200000), benchfix.Batched(p.Conn, p.Null, p.Task, batchWindow, "Null"))
	}

	// Paired rounds, median ratio: the ratio compares two ~3µs/call
	// timings, so scheduler and neighbor noise moves either side far more
	// than the telemetry work itself does — but noise drifts slowly, so an
	// on-run and the off-run right next to it see the same conditions.
	// Each round therefore produces its own on/off ratio, and the median
	// over five rounds discards the rounds a noise spike landed in.
	const rounds = 5
	ratios := make([]float64, 0, rounds)
	on, off := math.Inf(1), math.Inf(1)
	for i := 0; i < rounds; i++ {
		o, f := bench(false), bench(true)
		ratios = append(ratios, o/f)
		on = math.Min(on, o)
		off = math.Min(off, f)
	}
	sort.Float64s(ratios)

	fmt.Printf("  %-52s %10.2f %12.0f\n", "async batched, telemetry enabled", on, 1e6/on)
	record(10, "async batched, telemetry enabled", on)
	fmt.Printf("  %-52s %10.2f %12.0f\n", "async batched, telemetry disabled", off, 1e6/off)
	record(10, "async batched, telemetry disabled", off)
	telemetryRatio = ratios[rounds/2]
	fmt.Printf("  %-52s %9.3fx\n", "telemetry overhead ratio (on/off)", telemetryRatio)
	recordRatio(10, "telemetry overhead ratio (on/off)", telemetryRatio)
	fmt.Println()
}

// --- table 11: three-party handoff (relay vs shortened path) ---------------

// benchHolderSvc parks the middleman's imported proxy so the client can
// re-import it over the middleman connection — the wire-level re-export
// that either relays through the middleman or is shortened by a redeemed
// handoff ticket.
type benchHolderSvc struct{ cap *core.Capability }

// Get returns the parked capability.
func (h *benchHolderSvc) Get() (*core.Capability, error) { return h.cap, nil }

// table11 measures what the three-party handoff buys: the same null call
// issued over a directly-dialed connection, through a middleman relay
// (handoff disabled at the middleman, so every frame is forwarded twice),
// and over a shortened path (the re-export redeemed into a first-class
// import at the origin). The relay costs roughly two direct calls — two
// hops, two decode/dispatch cycles — and the shortened path must land
// back within a sliver of the direct row, which is the point of the
// protocol.
func table11() {
	fmt.Println("Table 11. Remote kernels: relayed vs handoff-shortened re-exports (in µs/call; beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "calls/sec")
	row := func(name string, us float64) {
		fmt.Printf("  %-52s %10.2f %12.0f\n", name, us, 1e6/us)
		record(11, name, us)
	}

	// Origin A: exports the null service and listens (Listen advertises
	// the bound address, which is what makes A a redeemable origin).
	kA := core.MustNew(core.Options{})
	aDom, err := kA.NewDomain(core.DomainConfig{Name: "origin"})
	check(err)
	aCap, err := kA.CreateNativeCapability(aDom, benchfix.NullSvc{})
	check(err)
	check(kA.Export("null", aCap))
	lnA, err := remote.Listen(kA, "tcp", "127.0.0.1:0")
	check(err)
	defer lnA.Close()

	// Middleman B: imports A's null service and re-exports it behind a
	// holder, exactly the shape an app produces when it passes a received
	// capability onward.
	kB := core.MustNew(core.Options{})
	bDom, err := kB.NewDomain(core.DomainConfig{Name: "middle"})
	check(err)
	ba, err := remote.Dial(kB, "tcp", lnA.Addr().String())
	check(err)
	defer ba.Close()
	bProxy, err := ba.Import("null")
	check(err)
	holderCap, err := kB.CreateNativeCapability(bDom, &benchHolderSvc{cap: bProxy})
	check(err)
	check(kB.Export("holder", holderCap))
	lnB, err := remote.Listen(kB, "tcp", "127.0.0.1:0")
	check(err)
	defer lnB.Close()

	// Client C.
	kC := core.MustNew(core.Options{})
	cDom, err := kC.NewDomain(core.DomainConfig{Name: "client"})
	check(err)
	task := kC.NewDetachedTask(cDom, "bench")

	// Baseline: C dials the origin directly.
	dconn, err := remote.Dial(kC, "tcp", lnA.Addr().String())
	check(err)
	defer dconn.Close()
	dproxy, err := dconn.Import("null")
	check(err)
	direct := measure(iters(20000), benchfix.SyncNull(dproxy, task))
	row("direct null call (C dials origin A)", direct)

	// Relay: handoff off at the middleman, so the re-export stays a pure
	// relay and every call transits B.
	remote.SetHandoff(kB, false)
	relayConn, err := remote.Dial(kC, "tcp", lnB.Addr().String())
	check(err)
	relayHolder, err := relayConn.Import("holder")
	check(err)
	res, err := relayHolder.InvokeFrom(task, "Get")
	check(err)
	relayCap := res[0].(*core.Capability)
	relayed := measure(iters(20000), benchfix.SyncNull(relayCap, task))
	row("relayed null call (C -> middleman B -> A)", relayed)
	remote.ReleaseProxy(relayCap)
	remote.ReleaseProxy(relayHolder)
	relayConn.Close()

	// Shortened: handoff back on, a fresh re-export ships with a ticket,
	// and C redeems it into a direct import at A before measuring.
	remote.SetHandoff(kB, true)
	shortConn, err := remote.Dial(kC, "tcp", lnB.Addr().String())
	check(err)
	defer shortConn.Close()
	shortHolder, err := shortConn.Import("holder")
	check(err)
	res, err = shortHolder.InvokeFrom(task, "Get")
	check(err)
	shortCap := res[0].(*core.Capability)
	deadline := time.Now().Add(10 * time.Second)
	for !remote.HandoffDone(shortCap) {
		if time.Now().After(deadline) {
			check(fmt.Errorf("handoff never shortened the re-exported route"))
		}
		time.Sleep(time.Millisecond)
	}
	shortened := measure(iters(20000), benchfix.SyncNull(shortCap, task))
	row("shortened null call (redeemed ticket, C -> A)", shortened)

	fmt.Printf("  %-52s %9.2fx\n", "relay penalty (relayed / direct)", relayed/direct)
	recordRatio(11, "relay penalty (relayed / direct)", relayed/direct)
	fmt.Printf("  %-52s %9.2fx\n", "shortened overhead (shortened / direct)", shortened/direct)
	recordRatio(11, "shortened overhead (shortened / direct)", shortened/direct)

	// Ticket hygiene: the one minted ticket was redeemed, so the origin's
	// handoff table reads empty — anything left is a leak.
	tickets := float64(remote.HandoffTableSizes(kA).Tickets)
	fmt.Printf("  %-52s %10.0f\n", "post-redeem unredeemed tickets, origin (want 0)", tickets)
	recordRatio(11, "post-redeem unredeemed tickets (origin)", tickets)
	fmt.Println()
}

// --- table 12: the wire hot path (pooled frames, generated marshalers) -----

// benchPayload is the registered payload message for the 1 KiB rows. Its
// marshaler plan compiles at RegisterWireType time, so these rows ride the
// generated fast path unless the registry's fastpath is toggled off.
type benchPayload struct {
	Seq  int64
	Data []byte
}

// benchPayloadSvc echoes payload messages.
type benchPayloadSvc struct{}

// Echo returns its argument.
func (benchPayloadSvc) Echo(p benchPayload) (benchPayload, error) { return p, nil }

// table12 measures the wire hot path directly: µs/call AND allocs/call
// for the three shapes the zero-copy work targets — the sync null call
// (per-frame overhead), the async-batched null call (where pooled frames
// and recycled batch slices should leave almost nothing per call), and a
// 1 KiB-payload echo. The generated-vs-reflect contrast is measured on
// the serializer passes themselves (marshal+unmarshal of the same 1 KiB
// message, fastpath on vs off): per wire call the four seri passes are a
// few percent of the total, so only the direct measurement resolves the
// difference above scheduler noise — and it is the per-type-marshaler
// claim being gated, not the syscalls around it.
func table12() {
	fmt.Println("Table 12. Remote kernels: wire hot path, time and allocations (beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "allocs/call")
	row := func(name string, us, allocs float64) {
		fmt.Printf("  %-52s %10.2f %12.1f\n", name, us, allocs)
		recordAllocs(12, name, us, allocs)
	}

	p := newPair(core.Options{})
	defer p.Close()
	p.Client.RegisterWireType("bench.payload", benchPayload{})
	p.Server.RegisterWireType("bench.payload", benchPayload{})
	pproxy, err := p.Export("payload", benchPayloadSvc{})
	check(err)

	syncUs, syncAllocs := measureAllocs(iters(20000), benchfix.SyncNull(p.Null, p.Task))
	row("sync null call (TCP loopback)", syncUs, syncAllocs)
	asyncUs, asyncAllocs := measureAllocs(iters(200000), benchfix.Batched(p.Conn, p.Null, p.Task, batchWindow, "Null"))
	row("async batched null call (TCP loopback)", asyncUs, asyncAllocs)

	// 1 KiB rows ride the async-batched path too: with the per-frame
	// syscall amortized away, what remains per call is dominated by the
	// four serializer passes (args and reply, encode and decode), which is
	// exactly the generated-vs-reflect contrast being measured.
	msg := benchPayload{Seq: 1, Data: make([]byte, 1024)}
	for i := range msg.Data {
		msg.Data[i] = byte(i)
	}
	echoUs, echoAllocs := measureAllocs(iters(50000), benchfix.Batched(p.Conn, pproxy, p.Task, 128, "Echo", msg))
	row("1 KiB payload echo, batched (TCP loopback)", echoUs, echoAllocs)

	// The serializer passes in isolation: one marshal+unmarshal of the
	// same message through the kernel's registry, generated plans on vs
	// bypassed (every encode/decode falls back to the reflect walker).
	// Interleaved best-of rounds, as in table 10.
	reg := p.Client.SeriRegistry()
	seriLoop := func(n int) error {
		for i := 0; i < n; i++ {
			data, err := seri.Marshal(reg, msg)
			if err != nil {
				return err
			}
			if _, err := seri.Unmarshal(reg, data); err != nil {
				return err
			}
		}
		return nil
	}
	seriBench := func(fast bool) (float64, float64) {
		reg.SetFastpath(fast)
		defer reg.SetFastpath(true)
		return measureAllocs(iters(500000), seriLoop)
	}
	fastUs, fastAllocs := math.Inf(1), math.Inf(1)
	reflUs, reflAllocs := math.Inf(1), math.Inf(1)
	for i := 0; i < 3; i++ {
		fu, fa := seriBench(true)
		ru, ra := seriBench(false)
		fastUs, fastAllocs = math.Min(fastUs, fu), math.Min(fastAllocs, fa)
		reflUs, reflAllocs = math.Min(reflUs, ru), math.Min(reflAllocs, ra)
	}
	row("1 KiB payload marshal+unmarshal (generated)", fastUs, fastAllocs)
	row("1 KiB payload marshal+unmarshal (reflect walker)", reflUs, reflAllocs)

	fmt.Printf("  %-52s %9.2fx\n", "generated-marshaler speedup (reflect / generated)", reflUs/fastUs)
	recordRatio(12, "generated-marshaler speedup (reflect / generated)", reflUs/fastUs)
	fmt.Println()
}
