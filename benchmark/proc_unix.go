//go:build unix

package main

import (
	"syscall"
	"time"
)

// procUsage is the process's CPU time, context switches and peak resident
// set from getrusage(2).
type procUsage struct {
	cpu    time.Duration
	ctxsw  int64
	rssMiB float64
}

func readUsage() procUsage {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return procUsage{}
	}
	return procUsage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxsw:  int64(ru.Nvcsw + ru.Nivcsw),
		rssMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}
