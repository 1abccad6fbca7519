package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared virtual machine the same operation's
// CPU time moves by up to ±20 % within minutes as other tenants' load changes
// the clock and the caches the vCPUs get, and a run's median moves with it
// (README.md, §Noise). The end-to-end timings are therefore stated at a
// nominal host speed: the benchmark times a reference loop — fixed code of
// its own, which no change to the program touches — before and after every
// timed section of an operation, and scales the section's host seconds by
// refNominal ÷ the reference's mean time around it. A program change moves
// the operation and not the reference; a change in the host's speed moves
// both.

// refNominal is the reference loop's time, in seconds, on the machine
// README.md's numbers come from: there, normalized and raw timings agree
// on average.
const refNominal = 0.019

// refTableWords sizes the reference loop's table: 4 MiB, larger than a
// core's private caches, so the loop, like the simulator, depends on the
// shared cache as well as on the core.
const refTableWords = 1 << 19

// refSteps is the number of reference loop steps timed once: about 20 ms.
const refSteps = 2_500_000

// refTimes is one measurement of the reference loop, or the mean of two.
type refTimes struct {
	cpu  float64 // CPU seconds of the thread that ran the loop
	wall float64 // wall seconds
}

// mean averages the measurements taken before and after a timed section.
func (a refTimes) mean(b refTimes) refTimes {
	return refTimes{(a.cpu + b.cpu) / 2, (a.wall + b.wall) / 2}
}

// hostRef owns the reference loop's table. It is mapped outside the Go heap,
// so the heap metrics and the collector never see it.
type hostRef struct {
	mapped []byte
	table  []uint64
	sink   uint64
}

// newHostRef maps the table; close unmaps it.
func newHostRef() (*hostRef, error) {
	mapped, err := syscall.Mmap(-1, 0, refTableWords*8,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference table: %w", err)
	}
	table := unsafe.Slice((*uint64)(unsafe.Pointer(&mapped[0])), refTableWords)
	return &hostRef{mapped: mapped, table: table}, nil
}

// close unmaps the table.
func (h *hostRef) close() {
	h.table = nil
	if err := syscall.Munmap(h.mapped); err != nil {
		// Unmapping exactly the mapping newHostRef made cannot fail.
		panic("clrbench: unmap reference table: " + err.Error())
	}
}

// measure times one reference loop. Its CPU time is its own thread's, so a
// garbage collection the operation before it left running on another
// thread does not count.
func (h *hostRef) measure() refTimes {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, w0 := threadCPUSeconds(), time.Now()
	h.sink += refLoop(h.table)
	return refTimes{cpu: threadCPUSeconds() - c0, wall: time.Since(w0).Seconds()}
}

// refLoop is the reference work: a xorshift stream of table indices, each
// step a dependent read-modify-write and a second read at another index.
func refLoop(table []uint64) uint64 {
	mask := uint64(len(table) - 1)
	x := uint64(88172645463325252)
	var s uint64
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		table[j] += x
		s += table[(j*7)&mask]
	}
	return s
}

// atNominal converts host seconds measured while the reference loop took
// ref seconds to seconds at the nominal host speed.
func atNominal(seconds, ref float64) float64 {
	if ref <= 0 {
		return seconds
	}
	return seconds * refNominal / ref
}
