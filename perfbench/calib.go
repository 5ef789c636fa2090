package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The shared 2-vCPU VM the benchmark was sized on changes speed by up to
// 2x, for tens of seconds to minutes, longer than a run: ten 30-second
// runs of one workload read from 10% to 49% apart between their
// quartiles, and averaging two consecutive runs hardly narrowed that. A
// dependent integer multiply chain kept its speed (5% between 30-second
// windows) while a random walk over an 8 MiB array slowed with the
// simulator: the contention is in the cache and memory the host shares,
// not in the clock. So each untraced workload process times such a walk
// between its operations and reports its throughput and round trip
// scaled to the walk's nominal speed; over 30-second windows of a
// Table 3 loop the scaled round trip spread by 4% between quartiles
// where the raw one spread by 23%. The walk is this file's own code, so
// a change to the simulator moves the scaled figures as it moves the raw
// ones. The raw figures are printed on the process's info line.
const (
	// calWords sizes the walk's array: larger than a core's 2 MiB L2, so
	// the walk reads the shared cache, whatever the operations left in
	// the core's own.
	calWords = 1 << 20
	// calSteps is one walk's length, about 3 ms on the uncontended VM.
	calSteps = 300_000
	// calNominalMs is one walk's duration on the uncontended VM: the
	// scaled figures read as if every walk had taken this long.
	calNominalMs = 3.0
	// calShare is the share of a process's measured time spent walking.
	calShare = 0.03
)

// calibrator times the walk. Its array lives outside the Go heap, so it
// neither changes the collector's heap goal nor counts as allocation.
type calibrator struct {
	raw   []byte
	mem   []uint64
	sink  uint64
	ms    []float64 // each walk's duration
	total time.Duration
}

func newCalibrator() (*calibrator, error) {
	raw, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration array: %w", err)
	}
	c := &calibrator{raw: raw, mem: unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), calWords)}
	// Fault the array in and warm it, untimed.
	for i := 0; i < 3; i++ {
		c.walk(false)
	}
	c.total = 0
	return c, nil
}

// walk times one fixed random read-modify-write walk over the array and
// records its duration if record is set.
func (c *calibrator) walk(record bool) {
	t0 := time.Now()
	x, s, m := uint64(0x9e3779b97f4a7c15), c.sink, uint64(len(c.mem)-1)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & m
		c.mem[j] += x
		s += c.mem[(j*31)&m]
	}
	c.sink = s
	d := time.Since(t0)
	c.total += d
	if record {
		c.ms = append(c.ms, float64(d)/1e6)
	}
}

// keep walks until walking has taken calShare of the time since start.
// The first walk after an operation is not recorded: it brings back the
// part of the array the operation's own memory traffic evicted, which
// depends on the simulator (walks straight after scalability operations
// had a median 1.8 times that of table3's, which mostly follow another
// walk). The recorded walks read the array from the shared cache.
func (c *calibrator) keep(start time.Time) {
	due := func() bool { return float64(c.total) < calShare*float64(time.Since(start)) }
	if !due() {
		return
	}
	c.walk(false)
	c.walk(true)
	for due() {
		c.walk(true)
	}
}

// slowdown is the median walk's duration against its nominal one.
func (c *calibrator) slowdown() float64 {
	return quantile(c.ms, 0.5) / calNominalMs
}

func (c *calibrator) close() error {
	c.mem = nil
	return syscall.Munmap(c.raw)
}
