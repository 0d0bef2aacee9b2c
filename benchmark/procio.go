package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
)

// ioCounts are the kernel's per-process I/O counters from /proc/self/io:
// read and write system calls (any file descriptor, sockets included,
// whether or not bytes moved) and the bytes they carried.
type ioCounts struct {
	syscr, syscw uint64
	rchar, wchar uint64
}

// parseProcIO parses the "name: value" lines of /proc/<pid>/io. Unknown
// lines are skipped; a missing syscr or syscw is an error.
func parseProcIO(b []byte) (ioCounts, error) {
	var c ioCounts
	seen := 0
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		name, val, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			continue
		}
		var dst *uint64
		switch string(name) {
		case "syscr":
			dst = &c.syscr
		case "syscw":
			dst = &c.syscw
		case "rchar":
			dst = &c.rchar
		case "wchar":
			dst = &c.wchar
		default:
			continue
		}
		v, err := strconv.ParseUint(string(bytes.TrimSpace(val)), 10, 64)
		if err != nil {
			return ioCounts{}, fmt.Errorf("proc io: %s: %w", name, err)
		}
		*dst = v
		if dst == &c.syscr || dst == &c.syscw {
			seen++
		}
	}
	if seen != 2 {
		return ioCounts{}, fmt.Errorf("proc io: syscr/syscw not found")
	}
	return c, nil
}

// procIO reads this process's I/O counters through one descriptor kept open
// for the whole run, so a reading costs exactly one read(2) — which the
// counter itself then includes: every delta between two readings is one
// read too high, on every workload alike.
type procIO struct {
	f   *os.File
	buf [512]byte
}

// openProcIO returns a reader whose read reports ok=false when the file
// does not exist (any system but Linux) or cannot be parsed.
func openProcIO() *procIO {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return &procIO{}
	}
	return &procIO{f: f}
}

func (p *procIO) read() (ioCounts, bool) {
	if p.f == nil {
		return ioCounts{}, false
	}
	if _, err := p.f.Seek(0, io.SeekStart); err != nil {
		return ioCounts{}, false
	}
	n, err := p.f.Read(p.buf[:]) // one read(2); File.ReadAt would loop to EOF
	if err != nil {
		return ioCounts{}, false
	}
	c, err := parseProcIO(p.buf[:n])
	return c, err == nil
}

func (p *procIO) close() {
	if p.f != nil {
		p.f.Close()
	}
}
