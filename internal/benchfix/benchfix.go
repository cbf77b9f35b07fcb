// Package benchfix holds the benchmark fixtures and timed bodies that the
// Go benchmarks (bench_test.go) and cmd/jkbench both run, so each table is
// defined once: the VM fixture of the paper's tables, the two-kernel
// remote pair of the remote tables, and the loops timed over them.
//
// A Body runs n iterations and reports the first failure. A Go benchmark
// runs body(b.N); jkbench times body(n) itself.
package benchfix

import (
	"runtime"

	"jkernel/internal/core"
	"jkernel/internal/remote"
)

// Body is one timed benchmark loop of n iterations.
type Body func(n int) error

// NullSvc is the null-call target of the native and remote rows.
type NullSvc struct{}

// Null does nothing.
func (NullSvc) Null() error { return nil }

// SyncNull is the synchronous null call: cap's Null invoked from task,
// each call waiting for its result. cap may be a local capability or a
// remote proxy.
func SyncNull(cap *core.Capability, task *core.Task) Body {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := cap.InvokeFrom(task, "Null"); err != nil {
				return err
			}
		}
		return nil
	}
}

// Batched is the windowed async fan-out: each wave starts up to window
// calls of method(args...) on proxy, flushes conn so they leave as
// multi-invoke frames, and waits for all of them before the next wave.
// proxy must be imported over conn.
func Batched(conn *remote.Conn, proxy *core.Capability, task *core.Task, window int, method string, args ...any) Body {
	futs := make([]*core.Future, 0, window)
	return func(n int) error {
		for done := 0; done < n; {
			w := min(window, n-done)
			futs = futs[:0]
			for i := 0; i < w; i++ {
				futs = append(futs, proxy.InvokeAsyncFrom(task, method, args...))
			}
			conn.Flush()
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					return err
				}
			}
			done += w
		}
		return nil
	}
}

// PingPong is Table 3's double thread switch: n round trips between the
// caller and a partner goroutine over unbuffered channels. With pin, both
// goroutines are locked to their own OS threads, the 1:1 thread model of
// the paper's JVMs; without it, the Go scheduler switches goroutines.
func PingPong(pin bool) Body {
	return func(n int) error {
		ping := make(chan struct{})
		pong := make(chan struct{})
		go func() {
			defer close(pong)
			if pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			for range ping {
				pong <- struct{}{}
			}
		}()
		if pin {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		for i := 0; i < n; i++ {
			ping <- struct{}{}
			<-pong
		}
		close(ping)
		<-pong // closed once the partner has exited
		return nil
	}
}
