package hugepage

import "syscall"

// advise asks for huge pages over the whole pages inside [addr,
// addr+size). The advice is a hint: an error (a kernel built without
// transparent huge pages) leaves the array on small pages, which is where
// it would be without it.
func advise(addr, size uintptr) {
	if start, n := inner(addr, size); n > 0 {
		//lint:allow cuckoovet:blockcheck madvise(MADV_HUGEPAGE) sets a flag on the mapping and does no I/O; it runs once per allocated table array, and a grow that allocates one is already allowed to wait under stripes
		_, _, _ = syscall.Syscall(syscall.SYS_MADVISE, start, n, syscall.MADV_HUGEPAGE)
	}
}
