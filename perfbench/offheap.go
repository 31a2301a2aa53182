package main

import (
	"fmt"
	"syscall"
)

// bodyArena holds the pre-marshaled request bodies in anonymous memory
// outside the Go heap. The benchmark shares its process with the server it
// drives; bodies on the heap would raise the garbage collector's heap
// target and so change how often the program under test collects, and how
// far its heap grows.
type bodyArena struct {
	buf []byte
	off int
}

// newBodyArena reserves size bytes; only the pages written become resident.
func newBodyArena(size int) (*bodyArena, error) {
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reserve %d bytes for request bodies: %w", size, err)
	}
	return &bodyArena{buf: buf}, nil
}

// add copies b into the arena and returns the copy.
func (a *bodyArena) add(b []byte) ([]byte, error) {
	if len(b) > len(a.buf)-a.off {
		return nil, fmt.Errorf("request body of %d bytes overflows its %d-byte arena", len(b), len(a.buf))
	}
	c := a.buf[a.off : a.off+len(b) : a.off+len(b)]
	copy(c, b)
	a.off += len(b)
	return c, nil
}

// free releases the arena; no body may be used afterwards.
func (a *bodyArena) free() error { return syscall.Munmap(a.buf) }
