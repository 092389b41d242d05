package cache

import "pamakv/internal/kv"

// StackOf returns the records of stack (class, sub) from LRU to MRU, for the
// external tests. They are the engine's: read them before its next operation.
func StackOf(c *Cache, class, sub int) []*kv.Item {
	var out []*kv.Item
	c.classes[class].subs[sub].list.AscendFromBack(func(_ uint32, it *kv.Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// RangeRecords calls fn with every resident's record id, key and value,
// under the engine lock. fn must not call into the engine.
func RangeRecords(c *Cache, fn func(id uint32, key string, value []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index.Range(func(id uint32, it *kv.Item) bool {
		fn(id, it.Key(), it.Value())
		return true
	})
}
