//go:build !unix

package tcptransport

import "errors"

// rawWrite has no non-blocking single attempt here, so every frame takes the
// writer goroutine.
func rawWrite(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }
