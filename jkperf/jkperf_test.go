package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/remote"
)

// TestMain lets servlet-http's worker processes re-execute the test binary.
func TestMain(m *testing.M) {
	remote.MaybeRunWorker(workerSetup)
	os.Exit(m.Run())
}

func testConfig(t *testing.T, workload string) *config {
	cfg, err := parseFlags([]string{"--workload", workload, "--seed", "7", "--seconds", "1", "--out", t.TempDir()}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSeedDeterminism checks that a seed fixes each workload's op
// sequence and that another seed changes it.
func TestSeedDeterminism(t *testing.T) {
	gens := map[string]func(seed, stream uint64) *gen{
		"local-lrmi": localGen, "remote-sync": syncGen, "remote-batched": batchGen, "servlet-http": httpGen,
	}
	for name, mk := range gens {
		a, b := hashOps(mk(7, 0), 5000), hashOps(mk(7, 0), 5000)
		if a != b {
			t.Errorf("%s: seed 7 gave op hashes %x and %x", name, a, b)
		}
		if c := hashOps(mk(8, 0), 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same op hash %x", name, a)
		}
		if c := hashOps(mk(7, 1), 5000); c == a {
			t.Errorf("%s: streams 0 and 1 gave the same op hash %x", name, a)
		}
	}
}

// TestQuotaMix checks that every block of ops holds the exact mix.
func TestQuotaMix(t *testing.T) {
	g := localGen(3, 0)
	counts := map[uint8]int{}
	for i := 0; i < 10*len(localQuota); i++ {
		counts[g.op().kind]++
	}
	want := map[uint8]int{}
	for _, k := range localQuota {
		want[k] += 10
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("kind %d: %d ops, want %d", k, counts[k], n)
		}
	}
}

// corruptEcho exports remote-sync's service with an Echo that flips a bit.
type corruptEcho struct{ *syncSvc }

func (c corruptEcho) Echo(b []byte) ([]byte, error) {
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 1
	return out, nil
}

// TestCorruptEchoCaught checks that a wrong echo counts as a failed call.
func TestCorruptEchoCaught(t *testing.T) {
	cfg := testConfig(t, "remote-sync")
	s, err := setupSync(cfg, nil, func(svc *syncSvc) any { return corruptEcho{svc} })
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	st := newCallerStats()
	s.do(0, op{kind: skNull}, st, nil, 0)
	if st.failed != 0 {
		t.Fatalf("null call failed")
	}
	s.do(0, op{kind: skEcho, a: 3}, st, nil, 0)
	if st.failed != 1 || st.calls != 2 {
		t.Fatalf("corrupted echo: %d failed of %d calls, want 1 of 2", st.failed, st.calls)
	}
}

// TestCorruptBatchedEchoCaught checks the batched path's payload check.
func TestCorruptBatchedEchoCaught(t *testing.T) {
	sent := Payload{Seq: 5, Data: bytes.Repeat([]byte{1}, 64)}
	bad := Payload{Seq: 5, Data: bytes.Repeat([]byte{1}, 64)}
	bad.Data[10] = 2
	cfg := testConfig(t, "remote-batched")
	b, err := setupBatched(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	f := b.proxy.InvokeAsyncFrom(b.task, "Echo", sent)
	b.conn.Flush()
	res, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFuture(f, sent, res); err != nil {
		t.Fatalf("good echo rejected: %v", err)
	}
	if err := checkFuture(f, bad, res); err == nil {
		t.Fatal("echo of different bytes accepted")
	}
}

// TestLeakedTableEntryCaught checks that a capability imported and never
// released fails the post-run table check, and that releasing it passes.
func TestLeakedTableEntryCaught(t *testing.T) {
	cfg := testConfig(t, "remote-sync")
	s, err := setupSync(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	conns := [2]*remote.Conn{s.conn, s.srv}
	if err := s.churn(s.tasks[0]); err != nil {
		t.Fatal(err)
	}
	if err := awaitBaseline(conns, s.base, 5*time.Second); err != nil {
		t.Fatalf("clean churn: %v", err)
	}
	res, err := s.proxy.InvokeFrom(s.tasks[0], "Make")
	if err != nil {
		t.Fatal(err)
	}
	if err := awaitBaseline(conns, s.base, 300*time.Millisecond); err == nil {
		t.Fatal("leaked import passed the table check")
	}
	leaked, ok := res[0].(*core.Capability)
	if !ok {
		t.Fatalf("Make returned %T", res[0])
	}
	remote.ReleaseProxy(leaked)
	if err := awaitBaseline(conns, s.base, 5*time.Second); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestOpenLoopChargesStall stalls a fake target for 100 ms at the first
// request. Requests due during the stall queue behind it; their latency
// must run from their due times, not from when they were finally sent.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	var (
		server  sync.Mutex // one server behind both connections
		stalled atomic.Bool
		mu      sync.Mutex
		service []time.Duration // time from dequeue to done, per request
	)
	do := func(c int, r *httpReq) error {
		t0 := time.Now()
		server.Lock()
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
			t0 = time.Now()
		}
		server.Unlock()
		mu.Lock()
		service = append(service, time.Since(t0))
		mu.Unlock()
		return nil
	}
	p := openLoop(1000, 400*time.Millisecond, 2, 1, func() op { return op{} }, do)
	if p.issued != 400 || p.failed != 0 {
		t.Fatalf("issued %d, failed %d", p.issued, p.failed)
	}
	// A quarter of the requests were due during the stall, waiting up to
	// its whole length: from due time, p99 sits near the stall.
	if p99 := time.Duration(p.all.quantile(0.99)); p99 < stall*8/10 {
		t.Errorf("p99 from due time = %v, want >= %v", p99, stall*8/10)
	}
	if p50 := time.Duration(p.all.quantile(0.5)); p50 > stall/2 {
		t.Errorf("p50 = %v: the stall should only reach the queued quarter", p50)
	}
	// Timed from send instead, those same requests look instant.
	var slow int
	for _, d := range service {
		if d > stall/2 {
			slow++
		}
	}
	if slow > 5 {
		t.Errorf("%d requests were slow once sent; the stall should charge queueing only", slow)
	}
	// The generator itself kept its schedule while the target stalled.
	if lag := time.Duration(p.lag.quantile(0.99)); lag > 20*time.Millisecond {
		t.Errorf("generator p99 lag %v: it must not wait for the target", lag)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric and workload
// tables in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
}

// TestWorkloadsEndToEnd runs every workload briefly, untraced and
// traced, and checks the result line.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--out", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatal(err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
					t.Fatalf("result: correct=%v attempted=%d failed=%d; stderr: %s", last.Correct, last.Attempted, last.Failed, errb.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(last.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(last.Metrics), len(want))
				}
			})
		}
	}
}

// TestCompareNeedsSameFingerprint checks that compare drops times and
// rates between reports of different hosts and keeps counts.
func TestCompareNeedsSameFingerprint(t *testing.T) {
	dir := t.TempDir()
	write := func(name, id string) string {
		doc := map[string]any{
			"workload":    "remote-sync",
			"fingerprint": map[string]any{"id": id},
			"metrics": map[string]any{
				"calls_per_s":     map[string]any{"value": 1000.0, "unit": "1/s"},
				"allocs_per_call": map[string]any{"value": 37.5, "unit": "count"},
			},
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", "host1"), write("b.json", "host1"), write("c.json", "host2")
	var same, diff bytes.Buffer
	if err := compareReports(a, b, &same); err != nil {
		t.Fatal(err)
	}
	if err := compareReports(a, c, &diff); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(same.String(), "calls_per_s") || !strings.Contains(same.String(), "allocs_per_call") {
		t.Errorf("same fingerprint: %q", same.String())
	}
	if strings.Contains(diff.String(), "calls_per_s") || !strings.Contains(diff.String(), "allocs_per_call") {
		t.Errorf("different fingerprints: %q", diff.String())
	}
}
