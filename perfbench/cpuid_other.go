//go:build !amd64

package main

// cpuInfo reports no model or flags off amd64, where the kernels run their
// portable paths.
func cpuInfo() (model string, flags []string) { return "", nil }
