//go:build unix

package tcptransport

import "syscall"

// rawReads says inbound connections are read by raw non-blocking reads, so
// pollers can read them too.
const rawReads = true

// rawWrite is one write(2) on a non-blocking socket descriptor.
func rawWrite(fd uintptr, b []byte) (int, error) { return syscall.Write(int(fd), b) }

// rawRead is one read(2) on a non-blocking socket descriptor; n is never
// negative.
func rawRead(fd uintptr, b []byte) (int, error) {
	for {
		n, err := syscall.Read(int(fd), b)
		if err != syscall.EINTR {
			return max(n, 0), err
		}
	}
}

// wouldBlock reports whether a raw read found the socket empty.
func wouldBlock(err error) bool { return err == syscall.EAGAIN }
