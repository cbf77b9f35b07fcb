// Benchmarks regenerating every table of the paper's evaluation.
// Run: go test -bench=. -benchmem .    (or cmd/jkbench for paper-format
// output). README explains what each table measures. The fixtures and
// timed bodies live in internal/benchfix, shared with cmd/jkbench.
package jkernel

import (
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"jkernel/internal/benchfix"
	"jkernel/internal/core"
	"jkernel/internal/fastcopy"
	"jkernel/internal/httpd"
	"jkernel/internal/oskit"
	"jkernel/internal/seri"
	"jkernel/internal/threads"
	"jkernel/internal/ukern"
	"jkernel/internal/vmkit"
)

// TestMain lets the oskit cross-process RPC servers re-execute this test
// binary as their child.
func TestMain(m *testing.M) {
	oskit.MaybeRunChild()
	os.Exit(m.Run())
}

// runBody times body over b.N iterations, from a fresh timer.
func runBody(b *testing.B, body benchfix.Body) {
	b.ResetTimer()
	if err := body(b.N); err != nil {
		b.Fatal(err)
	}
}

// newVM builds the VM fixture under profile, closed when b ends.
func newVM(b *testing.B, profile vmkit.Profile) *benchfix.VM {
	f, err := benchfix.NewVM(profile)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f
}

// --- Table 1: cost of null method invocations ----------------------------
// Paper rows (µs on MS-VM / Sun-VM): regular 0.04/0.03, interface
// 0.54/0.05, thread info lookup 0.55/0.29, lock pair 0.20/1.91, null LRMI
// 2.22/5.41. Profile A models MS-VM's cost shape, profile B Sun-VM's.

func benchTable1(b *testing.B, profile vmkit.Profile) {
	f := newVM(b, profile)
	rows := []struct {
		name, method string
	}{
		{"RegularInvocation", "runRegular"},
		{"InterfaceInvocation", "runIface"},
		{"AcquireReleaseLock", "runLock"},
		{"NullLRMI", "runLRMI"},
		{"LoopBaseline", "baseline"},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			runBody(b, f.Loop(row.method))
		})
	}
	b.Run("ThreadInfoLookup", func(b *testing.B) {
		b.ReportAllocs()
		runBody(b, f.ThreadLookup())
	})
}

func BenchmarkTable1_VMA(b *testing.B) { benchTable1(b, vmkit.ProfileA) }
func BenchmarkTable1_VMB(b *testing.B) { benchTable1(b, vmkit.ProfileB) }

// --- Table 2: local RPC costs ---------------------------------------------
// Paper (µs): NT-RPC 109, COM out-of-proc 99, COM in-proc 0.03. The
// J-Kernel's LRMI sits ~50x below the OS RPCs.

func BenchmarkTable2_NTRPC_Pipe(b *testing.B) {
	tr, err := oskit.StartPipeServer()
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	payload := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.RoundTrip(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_COMOutOfProc_TCP(b *testing.B) {
	tr, err := oskit.StartTCPServer()
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	payload := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.RoundTrip(payload); err != nil {
			b.Fatal(err)
		}
	}
}

var inprocSink byte

func BenchmarkTable2_COMInProc(b *testing.B) {
	s := oskit.InProc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inprocSink = s.Null(byte(i))
	}
}

func BenchmarkTable2_JKernelLRMI(b *testing.B) {
	runBody(b, newVM(b, vmkit.ProfileA).Loop("runLRMI"))
}

// --- Table 3: double thread switch ----------------------------------------
// Paper (µs): NT-base 8.6, MS-VM 9.8, Sun-VM 10.2. JVMs mapped Java
// threads onto kernel threads, so the faithful row pins goroutines to OS
// threads; the unpinned row is the Go-native ablation.

func BenchmarkTable3_NTBase_OSThreads(b *testing.B)    { runBody(b, benchfix.PingPong(true)) }
func BenchmarkTable3_Goroutines_Unpinned(b *testing.B) { runBody(b, benchfix.PingPong(false)) }

// --- Table 4: argument copying --------------------------------------------
// Paper (µs, MS-VM serialization/fast-copy): 1x10B 104/4.8, 1x100B
// 158/7.7, 10x10B 193/23.3, 1x1000B 633/19.2. Fast copy wins by an order
// of magnitude at 1 KB; many small objects cost more than one big one.

var table4Shapes = []struct {
	name        string
	count, size int
}{
	{"1x10", 1, 10},
	{"1x100", 1, 100},
	{"10x10", 10, 10},
	{"1x1000", 1, 1000},
}

func benchTable4(b *testing.B, profile vmkit.Profile) {
	f := newVM(b, profile)
	for _, shape := range table4Shapes {
		for _, eng := range []struct {
			name string
			fast bool
		}{{"Serialization", false}, {"FastCopy", true}} {
			b.Run(eng.name+"/"+shape.name, func(b *testing.B) {
				body, err := f.ArgCopy(eng.fast, shape.count, shape.size)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				runBody(b, body)
			})
		}
	}
}

func BenchmarkTable4_VMA(b *testing.B) { benchTable4(b, vmkit.ProfileA) }
func BenchmarkTable4_VMB(b *testing.B) { benchTable4(b, vmkit.ProfileB) }

// Native-path ablation of Table 4: the same shapes as Go values through
// the seri and fastcopy engines directly.
type natNode struct {
	Payload []byte
	Next    *natNode
}

func natChain(count, size int) *natNode {
	var head *natNode
	for i := 0; i < count; i++ {
		head = &natNode{Payload: make([]byte, size), Next: head}
	}
	return head
}

func BenchmarkTable4_NativeEngines(b *testing.B) {
	reg := seri.NewRegistry()
	reg.Register("natNode", natNode{})
	copier := fastcopy.New()
	for _, shape := range table4Shapes {
		chain := natChain(shape.count, shape.size)
		b.Run("Serialization/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := seri.Copy(reg, chain); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("FastCopy/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := copier.Copy(chain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 5: HTTP server throughput ---------------------------------------
// Paper (pages/s): 10B IIS 801 / JWS 122 / IIS+JK 662; 100B 790/121/640;
// 1000B 759/96/616. Shapes to hold: bridge+J-Kernel within tens of percent
// of the native server; the all-interpreted server an order of magnitude
// slower. ns/op inverts to pages/sec (cmd/jkbench prints the table).

var table5Sizes = []int{10, 100, 1000}

// newWeb builds the Table 5 fixture around a size-byte document.
func newWeb(b *testing.B, size int) *benchfix.Web {
	w, err := benchfix.NewWeb(size)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func sizeName(size int) string { return fmt.Sprintf("%dB", size) }

// reportPagesPerSec converts the measured ns/op into the paper's
// pages/second metric.
func reportPagesPerSec(b *testing.B) {
	b.StopTimer()
	if e := b.Elapsed(); e > 0 && b.N > 0 {
		b.ReportMetric(float64(b.N)/e.Seconds(), "pages/s")
	}
	b.StartTimer()
}

func BenchmarkTable5_IIS_Static(b *testing.B) {
	for _, size := range table5Sizes {
		h := httpd.StaticHandler(newWeb(b, size).Doc)
		b.Run(sizeName(size), func(b *testing.B) {
			req := httptest.NewRequest("GET", "/index.html", nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatal("bad status")
				}
			}
			reportPagesPerSec(b)
		})
	}
}

func BenchmarkTable5_IISJKernel_Bridge(b *testing.B) {
	for _, size := range table5Sizes {
		bridge := newWeb(b, size).Bridge
		b.Run(sizeName(size), func(b *testing.B) {
			req := httptest.NewRequest("GET", "/index.html", nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				bridge.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("bad status %d: %s", rec.Code, rec.Body.String())
				}
			}
			reportPagesPerSec(b)
		})
	}
}

func BenchmarkTable5_JWS_Interpreted(b *testing.B) {
	for _, size := range table5Sizes {
		jws := newWeb(b, size).JWS
		task := jws.K.NewTask(jws.Domain, "bench")
		raw := []byte("GET /index.html HTTP/1.0\r\n\r\n")
		b.Run(sizeName(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jws.HandleWith(task, raw); err != nil {
					b.Fatal(err)
				}
			}
			reportPagesPerSec(b)
		})
		task.Close()
	}
}

// --- Table 6: comparison with fast microkernels ----------------------------
// Paper (µs): L4 round-trip 1.82, Exokernel PCT r/t 2.40, Eros round-trip
// 4.90, J-Kernel 3-arg invocation 3.77 — all in one band.

func BenchmarkTable6_L4_RoundTripIPC(b *testing.B) {
	k := ukern.NewKernel()
	c := k.NewL4Pair()
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6_Exokernel_PCT(b *testing.B) {
	k := ukern.NewKernel()
	p := k.NewExoPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Call(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6_Eros_RoundTripIPC(b *testing.B) {
	k := ukern.NewKernel()
	p := k.NewErosPair()
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Call(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6_JKernel_3ArgInvocation(b *testing.B) {
	runBody(b, newVM(b, vmkit.ProfileA).Loop("runLRMI3"))
}

// --- Ablations beyond the paper's tables -----------------------------------

// localNull is a native null capability in a server domain, and a task
// entered on the calling goroutine in a client domain of the same kernel.
// The caller must close the task on that goroutine.
func localNull(b *testing.B) (*core.Capability, *core.Task) {
	k := core.MustNew(core.Options{})
	server, _ := k.NewDomain(core.DomainConfig{Name: "s"})
	client, _ := k.NewDomain(core.DomainConfig{Name: "c"})
	cap, err := k.CreateNativeCapability(server, benchfix.NullSvc{})
	if err != nil {
		b.Fatal(err)
	}
	return cap, k.NewTask(client, "b")
}

// Native-path LRMI vs the share-anything baseline: the cost of the
// J-Kernel's structure on the Go path.
func BenchmarkAblation_NativeLRMI_Null(b *testing.B) {
	cap, task := localNull(b)
	defer task.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cap.Invoke("Null"); err != nil {
			b.Fatal(err)
		}
	}
}

// Remote null call: the same null capability invocation as
// BenchmarkAblation_NativeLRMI_Null, but the capability lives in a second
// kernel behind the wire protocol (two kernels in one process over a real
// socket, so the gap tracks protocol + syscall cost, the paper's Table 2
// vs Table 3 contrast; cmd/jkbench adds the true cross-process variant).
func benchRemoteNull(b *testing.B, network string) {
	p, err := benchfix.NewPair(network, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ReportAllocs()
	runBody(b, benchfix.SyncNull(p.Null, p.Task))
}

func BenchmarkRemoteNullCall(b *testing.B) {
	b.Run("UnixSocket", func(b *testing.B) { benchRemoteNull(b, "unix") })
	b.Run("TCPLoopback", func(b *testing.B) { benchRemoteNull(b, "tcp") })
}

// InvokeFrom skips the goroutine-id thread lookup: how much of native LRMI
// is the lookup (the paper's "thread info lookup" row, native edition)?
func BenchmarkAblation_NativeLRMI_ExplicitTask(b *testing.B) {
	cap, task := localNull(b)
	defer task.Close()
	runBody(b, benchfix.SyncNull(cap, task))
}

// The §2 share-anything call: a plain method invocation, the fast and
// unsafe baseline that motivates the whole design.
func BenchmarkAblation_ShareAnything_DirectCall(b *testing.B) {
	s := oskit.InProc()
	for i := 0; i < b.N; i++ {
		inprocSink = s.Null(1)
	}
}

// Fast-copy cycle table on vs off (the paper: the hash table "slows down
// copying, though, so by default the copy code does not use a hash table").
func BenchmarkAblation_FastCopyTable(b *testing.B) {
	chain := natChain(10, 10)
	plain := fastcopy.New()
	table := fastcopy.New(fastcopy.WithCycleTable())
	b.Run("NoTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plain.Copy(chain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WithTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := table.Copy(chain); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Goroutine-id lookup cost: the native thread-info-lookup component.
func BenchmarkAblation_GoroutineIDLookup(b *testing.B) {
	k := core.MustNew(core.Options{})
	d, _ := k.NewDomain(core.DomainConfig{Name: "d"})
	task := k.NewTask(d, "b")
	defer task.Close()
	_ = task
	for i := 0; i < b.N; i++ {
		if gid := threads.GoroutineID(); gid == 0 {
			b.Fatal("no gid")
		}
	}
}
