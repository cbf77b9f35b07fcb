package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is one reading of the process counters the benchmark divides
// by work done: CPU time and context switches (getrusage), read/write
// syscalls (/proc/self/io; writev counts as a write), and heap
// allocations (runtime.MemStats.Mallocs).
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	nvcsw   int64
	syscr   int64
	syscw   int64
	mallocs uint64
}

func takeSnap() procSnap {
	var s procSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.nvcsw = ru.Nvcsw
	}
	s.syscr, s.syscw = procIO()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.at = time.Now()
	return s
}

// procDelta is the difference of two snapshots.
type procDelta struct {
	wall    time.Duration
	cpu     time.Duration
	nvcsw   int64
	syscr   int64
	syscw   int64
	mallocs int64
}

func (b procSnap) sub(a procSnap) procDelta {
	return procDelta{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		nvcsw:   b.nvcsw - a.nvcsw,
		syscr:   b.syscr - a.syscr,
		syscw:   b.syscw - a.syscw,
		mallocs: int64(b.mallocs - a.mallocs),
	}
}

func (d *procDelta) add(o procDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.nvcsw += o.nvcsw
	d.syscr += o.syscr
	d.syscw += o.syscw
	d.mallocs += o.mallocs
}

// procIO reads the syscall counters of /proc/self/io (-1 when absent).
func procIO() (syscr, syscw int64) {
	syscr, syscw = -1, -1
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return
}

// maxRSSMB is the process's peak resident set, from getrusage.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fingerprint identifies the host and the network paths a result was
// measured on. Absolute times are comparable only between results whose
// fingerprint IDs match.
type fingerprint struct {
	ID         string            `json:"id"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Paths      map[string]string `json:"paths"`
}

// workloadPaths names each network path a workload drives.
var workloadPaths = map[string]map[string]string{
	"local-lrmi":     {},
	"remote-sync":    {"client-server": "tcp-loopback"},
	"remote-batched": {"client-server": "tcp-loopback"},
	"servlet-http":   {"http-client-bridge": "tcp-loopback", "bridge-workers": "unix-socket"},
}

func hostFingerprint(workload string) fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Paths:      workloadPaths[workload],
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%s|%s|%s|%s", fp.NumCPU, fp.GOMAXPROCS, fp.CPUModel, fp.GoVersion, fp.GOOS, fp.GOARCH)
	for _, k := range sortedKeys(fp.Paths) {
		fmt.Fprintf(h, "|%s=%s", k, fp.Paths[k])
	}
	fp.ID = hex.EncodeToString(h.Sum(nil))[:16]
	return fp
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuTicks reads the steal and total ticks of the cpu line of
// /proc/stat. Steal is time the hypervisor ran something else while this
// machine's CPUs wanted to run: a run with a large steal share measured
// the host's neighbours as much as the program.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			continue
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
