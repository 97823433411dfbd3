package table

import (
	"bufio"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestSlotArraysAdvisedForHugePages opens one table per allocation site of
// makeLarge — LP's AoS slots, LPSoA's two columns, CuckooH4's slots, the
// two chained directories, and both chained directories again after a
// growth — and checks in /proc/self/smaps that each array's 2 MiB-aligned
// interior lies in a mapping the kernel may back with transparent huge
// pages (THPeligible: 1). With THP in madvise mode an unadvised heap
// array reads 0, so the test fails when a site loses its advice. In
// always mode every anonymous mapping is eligible, so it cannot tell.
// AnonHugePages is logged for information: how much of the interior is
// backed by huge pages right now depends on the kernel's free memory.
//
// Every table stays alive until smaps has been read: a freed array's heap
// range keeps its huge-page flag, and a later array placed there would
// pass without advice of its own. Run alone (-run) for that reason.
func TestSlotArraysAdvisedForHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no transparent huge pages on this kernel: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages are disabled: enabled = %q", strings.TrimSpace(string(mode)))
	}
	t.Logf("transparent_hugepage/enabled: %s", strings.TrimSpace(string(mode)))

	const slots = 1 << 19 // an 8 MiB AoS array; the ChainedH24 directory is 12 MiB
	lp := newKern(SchemeLP, Config{InitialCapacity: slots})
	soa := newKern(SchemeLPSoA, Config{InitialCapacity: 2 * slots})
	ck := newCuckoo(Config{InitialCapacity: slots})
	c24 := newChained(SchemeChained24, Config{InitialCapacity: slots})
	c8 := newChained(SchemeChained8, Config{InitialCapacity: 2 * slots})
	// Growth allocates the chained directories afresh, outside the
	// constructors; the kernel and Cuckoo grow through the paths above.
	g24 := newChained(SchemeChained24, Config{InitialCapacity: slots / 2, MaxLoadFactor: 0.5})
	g8 := newChained(SchemeChained8, Config{InitialCapacity: slots, MaxLoadFactor: 0.5})
	for k := uint64(1); len(g24.wide) == slots/2; k++ {
		put(t, g24, k, k)
	}
	for k := uint64(1); len(g8.heads) == slots; k++ {
		put(t, g8, k, k)
	}
	arrays := []struct {
		name  string
		array any
	}{
		{"LP slots", lp.slots},
		{"LPSoA keys", soa.keys},
		{"LPSoA vals", soa.vals},
		{"CuckooH4 slots", ck.slots},
		{"ChainedH24 directory", c24.wide},
		{"ChainedH8 directory", c8.heads},
		{"ChainedH24 directory, grown", g24.wide},
		{"ChainedH8 directory, grown", g8.heads},
	}

	maps, err := readSmaps()
	if err != nil {
		t.Skipf("cannot read /proc/self/smaps: %v", err)
	}
	for _, a := range arrays {
		v := reflect.ValueOf(a.array)
		base := v.Pointer()
		off, n := hugeInterior(base, uintptr(v.Len())*v.Type().Elem().Size())
		if n == 0 {
			t.Fatalf("%s: %d bytes hold no aligned 2 MiB page", a.name, uintptr(v.Len())*v.Type().Elem().Size())
		}
		lo, hi := base+off, base+off+n
		m, ok := maps.covering(lo, hi)
		if !ok {
			t.Errorf("%s: no one mapping covers its interior [%#x, %#x)", a.name, lo, hi)
			continue
		}
		t.Logf("%s: interior %d MiB, mapping %d MiB, AnonHugePages %s", a.name, n>>20, (m.end-m.start)>>20, m.field["AnonHugePages"])
		if got := m.field["THPeligible"]; got != "1" {
			t.Errorf("%s: interior [%#x, %#x) is in mapping [%#x, %#x) with THPeligible %q, want 1",
				a.name, lo, hi, m.start, m.end, got)
		}
	}
	runtime.KeepAlive(arrays)
}

// smapsEntry is one mapping of /proc/self/smaps: its address range and
// its "Name: value" fields, values trimmed.
type smapsEntry struct {
	start, end uintptr
	field      map[string]string
}

type smaps []smapsEntry

func readSmaps() (smaps, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out smaps
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		name, value, isField := strings.Cut(line, ":")
		if head := strings.Fields(line); len(head) > 0 && strings.Contains(head[0], "-") {
			lo, hi, _ := strings.Cut(head[0], "-")
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				out = append(out, smapsEntry{start: uintptr(start), end: uintptr(end), field: map[string]string{}})
				continue
			}
		}
		if isField && len(out) > 0 {
			out[len(out)-1].field[name] = strings.TrimSpace(value)
		}
	}
	return out, sc.Err()
}

// covering returns the mapping that holds all of [lo, hi).
func (s smaps) covering(lo, hi uintptr) (smapsEntry, bool) {
	for _, m := range s {
		if m.start <= lo && hi <= m.end {
			return m, true
		}
	}
	return smapsEntry{}, false
}
