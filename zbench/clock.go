package main

import (
	"syscall"
	"unsafe"
)

// The end-to-end times are CPU times. On a shared virtual machine the
// wall time of the same op moves by tens of percent from run to run
// (stolen and contended CPU), while its CPU time moves far less; wall
// times are still printed and reported with the per-layer metrics.

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the calling OS thread's CPU time in ns. The op loop
// runs on the main goroutine, locked to its thread in main.
func threadCPU() int64 {
	var ts syscall.Timespec
	// clock_gettime fails only for an invalid clock or address.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// processCPU returns the CPU time of all the process's threads in ns,
// which includes the garbage collector's background workers.
func processCPU() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}
