package freelist

import (
	"runtime"
	"slices"
	"testing"
)

func even(x int) bool { return x%2 == 0 }

func TestTakeReturnsTheLatestFittingItem(t *testing.T) {
	var l List[int]
	l.Give(func(int) bool { return true }, 2, 3, 4, 5)
	if x, ok := l.Take(even); !ok || x != 4 {
		t.Fatalf("Take(even) = %d, %v; want 4, true", x, ok)
	}
	if !slices.Equal(l.items, []int{2, 3, 5}) {
		t.Fatalf("after taking 4 the list holds %v, want [2 3 5]", l.items)
	}
	if x, ok := l.Take(nil); !ok || x != 5 {
		t.Fatalf("Take(nil) = %d, %v; want 5, true", x, ok)
	}
	if x, ok := l.Take(func(x int) bool { return x > 3 }); ok {
		t.Fatalf("Take(>3) = %d, true; no listed item fits", x)
	}
	if !slices.Equal(l.items, []int{2, 3}) {
		t.Fatalf("a Take that found nothing left %v, want [2 3]", l.items)
	}
}

func TestGiveDropsItemsFailingKeep(t *testing.T) {
	var l List[int]
	l.Give(even, 1, 2, 3, 4)
	if !slices.Equal(l.items, []int{2, 4}) {
		t.Fatalf("Give(even, 1, 2, 3, 4) listed %v, want [2 4]", l.items)
	}
}

func TestFullListAgesOutItsOldestItem(t *testing.T) {
	bound := 4 * runtime.GOMAXPROCS(0)
	var l List[int]
	for x := range bound + 2 {
		l.Give(even, 2*x)
	}
	if len(l.items) != bound || l.items[0] != 4 || l.items[bound-1] != 2*(bound+1) {
		t.Fatalf("after %d gives to a list of %d the list holds %d items from %d to %d, want %d from 4 to %d",
			bound+2, bound, len(l.items), l.items[0], l.items[len(l.items)-1], bound, 2*(bound+1))
	}
}
