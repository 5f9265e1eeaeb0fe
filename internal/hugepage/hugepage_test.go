package hugepage

import (
	"bufio"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestInnerCoversWholePagesOnly(t *testing.T) {
	const base = 7 * pageSize
	for _, c := range []struct {
		name        string
		addr, size  uintptr
		start, want uintptr
	}{
		{"aligned two pages", base, 2 * pageSize, base, 2 * pageSize},
		{"one byte short of a page", base, pageSize - 1, base, 0},
		{"page and a half", base, pageSize + pageSize/2, base, pageSize},
		{"starts one byte in", base + 1, 2 * pageSize, base + pageSize, pageSize},
		{"starts one byte in, one byte long", base + 1, 1, base + pageSize, 0},
		{"ends on the next page's start", base - 1, pageSize + 1, base, pageSize},
	} {
		start, n := inner(c.addr, c.size)
		if n != c.want || (n > 0 && start != c.start) {
			t.Errorf("%s: inner = [%#x, +%#x), want [%#x, +%#x)", c.name, start, n, c.start, c.want)
		}
		if n > 0 && (start%pageSize != 0 || start < c.addr || start+n > c.addr+c.size) {
			t.Errorf("%s: [%#x, +%#x) is not whole pages inside the array", c.name, start, n)
		}
	}
}

func TestMakeIsMake(t *testing.T) {
	for _, n := range []uint64{0, 1, minBytes/8 - 1, minBytes / 8} {
		s := Make[uint64](n)
		if uint64(len(s)) != n || uint64(cap(s)) != n {
			t.Fatalf("Make(%d): len %d cap %d", n, len(s), cap(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("Make(%d)[%d] = %d, want 0", n, i, v)
			}
		}
	}
}

// mapping is one /proc/self/smaps entry: its address range, its VmFlags
// and its AnonHugePages in bytes.
type mapping struct {
	lo, hi   uintptr
	hugeFlag bool // VmFlags carries "hg" (MADV_HUGEPAGE)
	anonHuge uint64
}

func readSmaps(t *testing.T) []mapping {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	var ms []mapping
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			l, err1 := strconv.ParseUint(lo, 16, 64)
			h, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				ms = append(ms, mapping{lo: uintptr(l), hi: uintptr(h)})
				continue
			}
		}
		if len(ms) == 0 {
			continue
		}
		m := &ms[len(ms)-1]
		switch fields[0] {
		case "AnonHugePages:":
			kb, _ := strconv.ParseUint(fields[1], 10, 64)
			m.anonHuge = kb << 10
		case "VmFlags:":
			for _, fl := range fields[1:] {
				m.hugeFlag = m.hugeFlag || fl == "hg"
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// advised returns the bytes of [lo, hi) that lie in mappings carrying the
// huge-page advice, and their AnonHugePages.
func advised(ms []mapping, lo, hi uintptr) (bytes uintptr, anonHuge uint64) {
	for _, m := range ms {
		if !m.hugeFlag || m.hi <= lo || m.lo >= hi {
			continue
		}
		bytes += min(m.hi, hi) - max(m.lo, lo)
		anonHuge += m.anonHuge
	}
	return bytes, anonHuge
}

// thpMode is the bracketed word of the kernel's transparent huge page
// setting: always, madvise or never ("" when there is none).
func thpMode() string {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		return ""
	}
	s := string(b)
	i, j := strings.IndexByte(s, '['), strings.IndexByte(s, ']')
	if i < 0 || j < i {
		return ""
	}
	return s[i+1 : j]
}

// A small array adds no advice anywhere (the whole heap is compared, since
// it may share a mapping an earlier array advised); a large one has every
// whole huge page inside it advised, and once touched is backed by huge
// pages whenever the kernel hands them out on advice.
func TestMakeAdvisesLargeArraysOnly(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("advice is Linux-only")
	}
	before, _ := advised(readSmaps(t), 0, ^uintptr(0))
	small := Make[uint64](minBytes/8 - 1)
	after, _ := advised(readSmaps(t), 0, ^uintptr(0))
	if after != before {
		t.Errorf("a %d-byte array changed the advised bytes %d -> %d", len(small)*8, before, after)
	}
	runtime.KeepAlive(small)

	large := Make[uint64](4 * minBytes / 8)
	lo, size := reflect.ValueOf(large).Pointer(), uintptr(len(large)*8)
	ilo, n := inner(lo, size)
	ihi := ilo + n
	if got, _ := advised(readSmaps(t), ilo, ihi); got != n {
		t.Fatalf("%d of the %d bytes of whole huge pages inside [%#x, %#x) are advised", got, n, lo, lo+size)
	}

	mode := thpMode()
	if mode != "madvise" && mode != "always" {
		t.Skipf("transparent huge pages are %q: nothing to back the advice", mode)
	}
	for i := 0; i < len(large); i += 512 { // one word a 4 KiB page
		large[i] = 1
	}
	if _, huge := advised(readSmaps(t), ilo, ihi); huge == 0 {
		t.Errorf("THP mode %s: the touched array's mapping has no AnonHugePages", mode)
	}
	runtime.KeepAlive(large)
}
