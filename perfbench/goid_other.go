//go:build !amd64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// curG identifies the calling goroutine by the ID in the first line of its
// stack trace ("goroutine 123 [running]:"). It is far slower than the
// amd64 version, which inflates the traced run's overhead.
func curG() uintptr {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[len("goroutine "):n])
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return uintptr(id)
}
