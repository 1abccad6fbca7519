package main

import "syscall"

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name
// on Linux: the usage of the calling thread alone.
const rusageThread = 1

// cpuSeconds returns the CPU time the process has used, user plus system,
// across all its threads: a simulation's own work and the garbage
// collection it causes, and none of a co-tenant's load.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// threadCPUSeconds returns the CPU time the calling thread has used; the
// caller keeps its goroutine locked to the thread.
func threadCPUSeconds() float64 { return rusageSeconds(rusageThread) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		// Getrusage with a valid target and pointer cannot fail on Linux.
		panic("clrbench: getrusage: " + err.Error())
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
