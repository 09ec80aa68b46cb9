package main

// curG identifies the calling goroutine by the address of its runtime
// descriptor, read from thread-local storage. The address is stable for
// the goroutine's life, which covers every span it has open; it costs a
// few ns, where parsing runtime.Stack costs tens of µs and would dominate
// the traced run.
func curG() uintptr
