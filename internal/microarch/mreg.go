package microarch

import "math/bits"

// mregWords sizes the register file's bitsets for the full 13-bit mreg
// address space of the QISA (isa.Instr.MregDst).
const mregWords = (1 << 13) / 64

// MregFile is the measurement register file: one value bit and one
// written bit per 13-bit register address, held in fixed bitsets so the
// per-shot pipeline state is a plain value — zeroing it between shots is
// a memset, not a map rebuild. It replaces the per-run map[uint16]bool of
// earlier revisions; Range iterates written registers in ascending
// address order, so consumers see the deterministic order a sorted map
// walk would.
type MregFile struct {
	val [mregWords]uint64
	set [mregWords]uint64
}

// Set writes value into register r and marks it written.
//
//xqlint:noalloc bitset write, per-instruction hot path
func (f *MregFile) Set(r uint16, value bool) {
	w, b := r>>6, uint64(1)<<(r&63)
	f.set[w] |= b
	if value {
		f.val[w] |= b
	} else {
		f.val[w] &^= b
	}
}

// Get returns register r's value (false if never written).
func (f *MregFile) Get(r uint16) bool {
	return f.val[r>>6]>>(r&63)&1 != 0
}

// Len counts the written registers.
func (f *MregFile) Len() int {
	n := 0
	for _, w := range f.set {
		n += bits.OnesCount64(w)
	}
	return n
}

// Range calls fn for every written register in ascending address order.
func (f *MregFile) Range(fn func(r uint16, value bool)) {
	for wi, w := range f.set {
		for m := w; m != 0; m &= m - 1 {
			b := uint16(bits.TrailingZeros64(m))
			r := uint16(wi)<<6 | b
			fn(r, f.val[wi]>>(b&63)&1 != 0)
		}
	}
}

// Reset clears every register.
//
//xqlint:noalloc memset of fixed arrays between shots
func (f *MregFile) Reset() {
	for i := range f.set {
		f.set[i] = 0
		f.val[i] = 0
	}
}
