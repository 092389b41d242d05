package pamakv

import (
	"reflect"
	"testing"
	"unsafe"

	"pamakv/internal/hashtable"
	"pamakv/internal/kv"
)

// TestItemLayout is the record gate: kv.Item is exactly one 64-byte cache
// line with no Go pointer in it, and the records a kv.Records store hands out
// are 64-byte aligned, so a record is one line and a chunk of them is memory
// the collector never scans. A field that grows the record, or one that holds
// a pointer (a string, a slice, ...), fails here by name rather than as a
// second line on every hit or a heap the collector walks.
func TestItemLayout(t *testing.T) {
	if got := unsafe.Sizeof(kv.Item{}); got != 64 {
		t.Fatalf("kv.Item is %d bytes, want 64 (one cache line)", got)
	}
	for _, f := range pointerFields(reflect.TypeOf(kv.Item{}), "kv.Item") {
		t.Errorf("%s holds a Go pointer: a record must be pointer-free", f)
	}
	var recs kv.Records
	for i := 0; i < 3*kv.ChunkLen; i++ {
		id, it := recs.New()
		if p := uintptr(unsafe.Pointer(it)); p%64 != 0 {
			t.Fatalf("record %d at %#x, not 64-byte aligned", id, p)
		}
	}
}

// TestIndexSlotLayout is the index gate: a hashtable slot is 8 bytes, a
// 32-bit hash tag and a record id, with no Go pointer in it, so the index
// costs 16–32 bytes a resident at its load of 1/4–1/2 and the collector never
// scans it. A slot that grows back to a 64-bit hash, or that holds a pointer,
// fails here by name.
func TestIndexSlotLayout(t *testing.T) {
	f, ok := reflect.TypeOf(hashtable.Table{}).FieldByName("slots")
	if !ok || f.Type.Kind() != reflect.Slice {
		t.Fatalf("hashtable.Table has no slots slice")
	}
	slot := f.Type.Elem()
	if got := slot.Size(); got != 8 {
		t.Fatalf("the index slot %v is %d bytes, want 8", slot, got)
	}
	for _, name := range pointerFields(slot, "hashtable.slot") {
		t.Errorf("%s holds a Go pointer: an index slot must be pointer-free", name)
	}
}

// pointerFields names every part of t, a field at path, that holds a Go
// pointer the collector would follow.
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return []string{path + " (" + t.Kind().String() + ")"}
	case reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	}
	return nil
}
