package match

// Pick returns the first position at or after the pointer (cyclically) for
// which want returns true, or -1 if none does, and does not move the
// pointer. It is the ring's definition, walked position by position: the
// tests hold every matcher's nearest-candidate arbitration to it.
func (r *Ring) Pick(want func(pos int) bool) int {
	for k := 0; k < r.n; k++ {
		pos := r.ptr + k
		if pos >= r.n {
			pos -= r.n
		}
		if want(pos) {
			return pos
		}
	}
	return -1
}
