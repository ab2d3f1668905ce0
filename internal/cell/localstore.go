package cell

import "fmt"

// LocalStore is the 256 KB software-managed memory of an SPE, used as a
// unified instruction and data store. The paper's port loads a single
// 117 KB code module with all three offloaded functions, leaving 139 KB for
// stack, heap, buffers and the strip-mining DMA windows; this allocator
// enforces exactly that accounting.
type LocalStore struct {
	size     int
	used     int
	segments map[string]int
}

// NewLocalStore creates an empty local store of the given size.
func NewLocalStore(size int) *LocalStore {
	return &LocalStore{size: size, segments: make(map[string]int)}
}

// Alloc reserves a named segment, failing when the store would overflow —
// the constraint that forces strip-mining of the likelihood vectors and
// forbids arbitrary function offloading.
func (ls *LocalStore) Alloc(name string, bytes int) error {
	if bytes <= 0 {
		return fmt.Errorf("cell: allocation %q of %d bytes", name, bytes)
	}
	if _, exists := ls.segments[name]; exists {
		return fmt.Errorf("cell: segment %q already allocated", name)
	}
	if ls.used+bytes > ls.size {
		return fmt.Errorf("cell: local store overflow: %q needs %d bytes, %d free of %d",
			name, bytes, ls.size-ls.used, ls.size)
	}
	ls.segments[name] = bytes
	ls.used += bytes
	return nil
}
