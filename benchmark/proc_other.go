//go:build !unix

package main

import "time"

type procUsage struct {
	cpu    time.Duration
	ctxsw  int64
	rssMiB float64
}

// readUsage has no portable source off unix; the proc.* layer metrics read 0.
func readUsage() procUsage { return procUsage{} }
