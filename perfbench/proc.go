package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// baseRSSMB returns the process's resident set size in MiB after a
// collection that hands freed memory back to the OS. Read before the system
// is built, it is the benchmark's own share of the peak: the Go runtime,
// the generated inputs and the generator.
func baseRSSMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

var probeSink byte // keeps the probe's hash chain live

// probeMs times a fixed SHA-256 chain on one core. Printed before and after
// each run, it tells a slow run on a slow host from a slow program: the
// CPU-bound workloads follow the host's speed, which drifts on a shared VM.
func probeMs() float64 {
	t0 := time.Now()
	h := sha256.Sum256(nil)
	for i := 0; i < 1_000_000; i++ {
		h = sha256.Sum256(h[:])
	}
	probeSink = h[0]
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// procSample is a point-in-time reading of the process counters the
// per-layer proc and allocation metrics are deltas of.
type procSample struct {
	cpu         time.Duration // user + system CPU
	gcCPU       float64       // runtime/metrics GC CPU seconds
	totalCPU    float64       // runtime/metrics total CPU seconds
	allocBytes  uint64
	allocObject uint64
}

var procMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[1].Value.Float64()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.allocBytes, s.allocObject = mem.TotalAlloc, mem.Mallocs
	return s
}

// procDelta is the change between two samples.
type procDelta struct {
	cpu          time.Duration
	gcFrac       float64
	allocBytes   float64
	allocObjects float64
}

func diffProc(a, b procSample) procDelta {
	return procDelta{
		cpu:          b.cpu - a.cpu,
		gcFrac:       ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		allocObjects: float64(b.allocObject - a.allocObject),
	}
}
