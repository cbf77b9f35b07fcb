package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// callerStats is what one load thread accumulates during one interval.
type callerStats struct {
	calls  int64
	failed int64
	lat    *hist
}

func newCallerStats() *callerStats { return &callerStats{lat: newHist()} }

// fail counts one failed or wrong call and reports the first few.
func (st *callerStats) fail(format string, args ...any) {
	st.failed++
	st.calls++
	logFailure(format, args...)
}

// opFunc runs one generated op on load thread c and records its calls and
// latency in st. With tr non-nil the op is traced: parent is the id of
// the op's root span, which the harness records around the call, and
// the returned name labels that span.
type opFunc func(c int, st *callerStats, tr *tracer, parent uint64) (name string)

// interval is one measured slice of a closed-loop run.
type interval struct {
	traced bool
	calls  int64
	failed int64
	lat    *hist
	proc   procDelta
}

func (iv interval) perCall(x float64) float64 {
	if iv.calls == 0 {
		return 0
	}
	return x / float64(iv.calls)
}

// closedRun is a finished closed-loop run.
type closedRun struct {
	intervals []interval
	attempted int64 // every call, warm-up included
	failed    int64
}

// traceSample traces one op in traceSample per load thread.
const traceSample = 8

// runClosed drives callers load threads, each issuing its next op only
// after the previous one returned. After warm, it measures n intervals of
// each; with tr non-nil, every second interval is traced.
// Load threads switch intervals at op boundaries, by epoch number, so the
// per-op path takes no lock.
func runClosed(callers int, warm, each time.Duration, n int, tr *tracer, op opFunc) closedRun {
	traced := make([]bool, n+2)
	for i := 1; i <= n; i++ {
		traced[i] = tr != nil && i%2 == 0
	}
	type pubStat struct {
		epoch int64
		st    *callerStats
	}
	var epoch atomic.Int64
	// Each load thread publishes once per epoch: warm-up, n intervals.
	pub := make(chan pubStat, callers*(n+1))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cur := int64(0)
			st := newCallerStats()
			var tick int
			for {
				if e := epoch.Load(); e != cur {
					pub <- pubStat{epoch: cur, st: st}
					if e > int64(n) {
						return
					}
					cur, st = e, newCallerStats()
				}
				tick++
				if !traced[cur] || tick%traceSample != 0 {
					op(c, st, nil, 0)
					continue
				}
				id := tr.newID()
				start := tr.now()
				name := op(c, st, tr, id)
				tr.record(span{Name: name, ID: id, Req: id, Start: start, End: tr.now()})
			}
		}(c)
	}
	time.Sleep(warm)
	snaps := make([]procSnap, n+1)
	for i := 1; i <= n; i++ {
		snaps[i-1] = takeSnap()
		epoch.Store(int64(i))
		time.Sleep(each)
	}
	snaps[n] = takeSnap()
	epoch.Store(int64(n + 1))
	wg.Wait()
	close(pub)

	run := closedRun{intervals: make([]interval, n)}
	for i := range run.intervals {
		run.intervals[i] = interval{traced: traced[i+1], lat: newHist(), proc: snaps[i+1].sub(snaps[i])}
	}
	for p := range pub {
		run.attempted += p.st.calls
		run.failed += p.st.failed
		if p.epoch == 0 {
			continue
		}
		iv := &run.intervals[p.epoch-1]
		iv.calls += p.st.calls
		iv.failed += p.st.failed
		iv.lat.merge(p.st.lat)
	}
	return run
}

// closedMetrics reduces the untraced intervals of a closed-loop run to
// its latency, throughput and cost figures: each is the median over
// intervals, so one disturbed interval cannot move it.
func closedMetrics(run closedRun) map[string]float64 {
	var cps, p50, p90, p99, cpu, allocs []float64
	for _, iv := range run.intervals {
		if iv.traced || iv.calls == 0 {
			continue
		}
		cps = append(cps, float64(iv.calls)/iv.proc.wall.Seconds())
		p50 = append(p50, iv.lat.quantile(0.50)/1e3)
		p90 = append(p90, iv.lat.quantile(0.90)/1e3)
		p99 = append(p99, iv.lat.quantile(0.99)/1e3)
		cpu = append(cpu, iv.perCall(float64(iv.proc.cpu.Microseconds())))
		allocs = append(allocs, iv.perCall(float64(iv.proc.mallocs)))
	}
	return map[string]float64{
		"calls_per_s":     median(cps),
		"latency_p50_us":  median(p50),
		"latency_p90_us":  median(p90),
		"latency_p99_us":  median(p99),
		"cpu_us_per_call": median(cpu),
		"allocs_per_call": median(allocs),
	}
}

// overheadRatio is the traced intervals' median time per call over the
// untraced intervals'.
func overheadRatio(run closedRun) float64 {
	var on, off []float64
	for _, iv := range run.intervals {
		if iv.calls == 0 {
			continue
		}
		per := iv.proc.wall.Seconds() / float64(iv.calls)
		if iv.traced {
			on = append(on, per)
		} else {
			off = append(off, per)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on) / median(off)
}

// syscallLayers reports the per-call process counters of every interval.
func syscallLayers(run closedRun, layers map[string]float64) {
	var d procDelta
	var calls int64
	for _, iv := range run.intervals {
		d.add(iv.proc)
		calls += iv.calls
	}
	if calls == 0 {
		return
	}
	layers["remote.write_syscalls_per_call"] = float64(d.syscw) / float64(calls)
	layers["remote.read_syscalls_per_call"] = float64(d.syscr) / float64(calls)
	layers["remote.ctxsw_per_call"] = float64(d.nvcsw) / float64(calls)
}

// probe times f in batches of batch calls, one span per batch, until
// budget has elapsed; the layer's per-call self time comes from the spans.
// f reports a wrong result as an error, which stops the probe.
func probe(tr *tracer, name string, budget time.Duration, batch int, f func(i int) error) error {
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); {
		start := tr.now()
		for j := 0; j < batch; j, i = j+1, i+1 {
			if err := f(i); err != nil {
				return err
			}
		}
		tr.record(span{Name: name, Start: start, End: tr.now(), N: int64(batch)})
	}
	return nil
}
