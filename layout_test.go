package pamakv

import (
	"testing"
	"unsafe"

	"pamakv/internal/kv"
)

// TestItemLayout pins kv.Item at two cache lines: 120 bytes, which the
// allocator's 128-byte size class places 64-byte aligned, so an item is one
// adjacent pair of lines and an index hit's compare of Key and Hash touches
// the first. A field added to the struct fails here, by name, rather than as
// a third line on every hit.
func TestItemLayout(t *testing.T) {
	if got := unsafe.Sizeof(kv.Item{}); got != 120 {
		t.Fatalf("kv.Item is %d bytes, want 120 (in the 128-byte class: two cache lines)", got)
	}
	var it kv.Item
	if end := unsafe.Offsetof(it.Hash) + unsafe.Sizeof(it.Hash); end > 64 {
		t.Errorf("Key and Hash end at byte %d, past the first cache line", end)
	}
	items := make([]*kv.Item, 1024)
	for i := range items {
		items[i] = new(kv.Item)
		if p := uintptr(unsafe.Pointer(items[i])); p%64 != 0 {
			t.Fatalf("item %d allocated at %#x, not 64-byte aligned", i, p)
		}
	}
}
