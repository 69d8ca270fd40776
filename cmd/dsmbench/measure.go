package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// summary is a metric's estimate from repeated samples: the median with
// its quartiles and the number of samples behind it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs.
func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Median: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles returns the three cut points dividing xs into four equal
// groups, by the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4). One sample is its own quartiles; none
// gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples and how many samples lie beyond it. ok is false when fewer
// than ten do: a tail that thin is one or two unlucky requests, not a
// percentile.
func percentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	d := append([]float64(nil), samples...)
	sort.Float64s(d)
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	rank = max(1, min(rank, len(d)))
	beyond = len(d) - rank
	return d[rank-1], beyond, beyond >= 10
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	gcs     uint32
	pauseNS uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// since is the resource cost of the interval from u to now.
type cost struct {
	wallS, cpuS, allocMB, gcs, pauseMS float64
}

func (u usage) since() cost {
	now := readUsage()
	return cost{
		wallS:   now.wall.Sub(u.wall).Seconds(),
		cpuS:    (now.cpu - u.cpu).Seconds(),
		allocMB: float64(now.alloc-u.alloc) / (1 << 20),
		gcs:     float64(now.gcs - u.gcs),
		pauseMS: float64(now.pauseNS-u.pauseNS) / 1e6,
	}
}

// resetPeakRSS collects the heap, returns the freed memory to the
// system and restarts the kernel's resident-set high-water mark from
// the resulting resident size (Linux 4.0 and later).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) since the
// last reset, in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink uint64

// calibrate times a fixed pure-Go loop — integer hashing over a 64-KiB
// table, no allocation, no system calls — in milliseconds. It does the
// same work on every host and commit, so a slow reading flags a slow or
// busy host. Reports carry it; nothing is normalized by it.
func calibrate() float64 {
	var table [8192]uint64
	x := uint64(0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&8191] += x
	}
	ms := float64(time.Since(start)) / 1e6
	calibrationSink += table[x&8191]
	return ms
}
