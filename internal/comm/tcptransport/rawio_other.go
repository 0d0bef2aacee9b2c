//go:build !unix

package tcptransport

import "errors"

// rawReads is false: an inbound connection is read by its reader goroutine
// alone, through the net.Conn, and Poll finds nothing.
const rawReads = false

// rawWrite has no non-blocking single attempt here, so every frame takes the
// writer goroutine.
func rawWrite(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }

// rawRead is never called: rawReads is false.
func rawRead(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }

// wouldBlock is false: reads through the net.Conn block instead.
func wouldBlock(error) bool { return false }
