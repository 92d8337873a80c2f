package routing

// Exhausted reports whether the tree's search has drained its heap.
func (t *SPTree) Exhausted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.heap == nil
}
