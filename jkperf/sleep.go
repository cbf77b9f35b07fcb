package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a Linux timerfd that the Go runtime's network poller
// watches. Go's own timers round a sub-millisecond wait up to a whole
// millisecond when the process is idle, which an open-loop generator
// would charge to the server as latency; the timerfd wakes the poller
// within microseconds.
type sleeper struct {
	fd uintptr // kept apart from f: File.Fd would make f blocking
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// newSleeper returns a timerfd sleeper, or nil when the kernel has none;
// a nil *sleeper falls back to time.Sleep.
func newSleeper() *sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (s *sleeper) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s == nil {
		time.Sleep(d)
		return
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	if _, err := s.f.Read(buf[:]); err != nil {
		time.Sleep(d)
	}
}

func (s *sleeper) close() {
	if s != nil {
		s.f.Close()
	}
}
