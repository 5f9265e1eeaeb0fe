//go:build !linux

package hugepage

func advise(addr, size uintptr) {}
