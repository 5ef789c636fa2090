package decoder

import (
	"math/bits"

	"xqsim/internal/surface"
)

// SyndromeBitmap is a bit-packed syndrome over the (d+1) x (d+1) ancilla
// grid of one patch: bit row*Stride+col marks a non-trivial plaquette.
// It mirrors internal/stab's word-packed tableau layout and replaces the
// map[surface.Coord]bool representation on the simulate->decode hot path:
// filling it is branch-free, scanning it walks set bits in row-major order
// (the hardware's cell scan order) via trailing-zero counts, and resetting
// it is a word clear instead of a map reallocation.
type SyndromeBitmap struct {
	// Stride is the ancilla-grid width, d+1.
	Stride int //xqlint:persistent grid geometry, reshaped only by Resize
	// Words holds the bits, least-significant bit first.
	Words []uint64
}

// NewSyndromeBitmap returns an empty bitmap sized for code c.
func NewSyndromeBitmap(c surface.Code) *SyndromeBitmap {
	stride := c.D + 1
	return &SyndromeBitmap{
		Stride: stride,
		Words:  make([]uint64, (stride*stride+63)/64),
	}
}

// Resize re-shapes the bitmap for code c, reusing the backing array when
// possible, and clears it.
func (b *SyndromeBitmap) Resize(c surface.Code) {
	stride := c.D + 1
	words := (stride*stride + 63) / 64
	b.Stride = stride
	if cap(b.Words) < words {
		b.Words = make([]uint64, words)
		return
	}
	b.Words = b.Words[:words]
	b.Reset()
}

// Reset clears every bit.
//
//xqlint:noalloc word clear over existing backing
func (b *SyndromeBitmap) Reset() {
	for i := range b.Words {
		b.Words[i] = 0
	}
}

// index maps an ancilla coordinate to its bit position.
func (b *SyndromeBitmap) index(p surface.Coord) int {
	return p.Row*b.Stride + p.Col
}

// Set marks plaquette p non-trivial.
//
//xqlint:noalloc single word OR on the syndrome fill path
func (b *SyndromeBitmap) Set(p surface.Coord) {
	i := b.index(p)
	b.Words[i>>6] |= 1 << uint(i&63)
}

// Xor folds other's bits into b (symmetric difference). Both bitmaps
// must be sized for the same code. This is the detection-event
// accumulation of the streaming decoder: XORing per-round events
// telescopes to the net flip parity, so the accumulated bitmap is always
// the whole-stream syndrome regardless of how rounds are windowed.
//
//xqlint:noalloc word-wise fold on the streaming path
func (b *SyndromeBitmap) Xor(other *SyndromeBitmap) {
	for i := range b.Words {
		b.Words[i] ^= other.Words[i]
	}
}

// AppendCells appends the non-trivial plaquettes to dst in row-major scan
// order (ascending row, then column — the order DecodePatch sorts into)
// and returns the extended slice.
func (b *SyndromeBitmap) AppendCells(dst []surface.Coord) []surface.Coord {
	for wi, w := range b.Words {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			dst = append(dst, surface.Coord{Row: i / b.Stride, Col: i % b.Stride})
			w &= w - 1
		}
	}
	return dst
}

// FromMap loads the map representation (entries with value false are
// ignored, matching DecodePatch's treatment of explicit-false entries).
func (b *SyndromeBitmap) FromMap(m map[surface.Coord]bool) {
	b.Reset()
	//xqlint:ignore maprange each key sets its own bit; the bitmap is order-insensitive
	for p, on := range m {
		if on {
			b.Set(p)
		}
	}
}
