//go:build unix

package tcptransport

import "syscall"

// rawWrite is one write(2) on a non-blocking socket descriptor.
func rawWrite(fd uintptr, b []byte) (int, error) { return syscall.Write(int(fd), b) }
