package plancache

import "math/bits"

// sketch is a shard's frequency sketch for TinyLFU admission (Einziger,
// Friedman & Manes, "TinyLFU: A Highly Efficient Cache Admission
// Policy", ACM ToS 2017): a count-min sketch of 4-bit counters, four rows
// of width counters each, packed sixteen to a word. It remembers how
// often keys were looked up, including keys the shard no longer holds:
// that memory is what lets a key that comes back beat one a scan brought
// in once. Every period samples all counters halve, so popularity fades.
// The caller holds the shard's lock.
type sketch struct {
	table []uint64
	// rowBits is log2(width).
	rowBits         uint
	samples, period int
}

// rowSeeds are the odd multipliers of the rows' multiply-shift hashes.
var rowSeeds = [4]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0xd6e8feb86659fd93}

// newSketch sizes a sketch for a shard of capacity entries: about eight
// counters per entry (two per entry in each row), halved every ten
// capacities of samples.
func newSketch(capacity int) sketch {
	width := 16
	for width < 2*capacity {
		width <<= 1
	}
	return sketch{
		table:   make([]uint64, len(rowSeeds)*width/16),
		rowBits: uint(bits.TrailingZeros(uint(width))),
		period:  10 * capacity,
	}
}

// slot returns the word and bit offset of row i's counter for x.
func (s *sketch) slot(i int, x uint64) (word int, shift uint) {
	c := (x * rowSeeds[i]) >> (64 - s.rowBits)
	return i<<(s.rowBits-4) + int(c>>4), uint(c&15) << 2
}

// add counts one lookup of x. The update is conservative: only the
// counters at x's current estimate move, so a key that shares some of
// them with popular keys does not inflate those further.
func (s *sketch) add(x uint64) {
	if n := s.estimate(x); n < 15 {
		for i := range rowSeeds {
			if w, sh := s.slot(i, x); (s.table[w]>>sh)&15 == n {
				s.table[w] += 1 << sh
			}
		}
	}
	if s.samples++; s.samples >= s.period {
		for i := range s.table {
			s.table[i] = (s.table[i] >> 1) & 0x7777777777777777
		}
		s.samples /= 2
	}
}

// estimate returns the least of x's four counters: how often x was
// looked up (halved with the rest), or more where other keys share all
// four of its counters.
func (s *sketch) estimate(x uint64) uint64 {
	n := uint64(15)
	for i := range rowSeeds {
		w, sh := s.slot(i, x)
		n = min(n, (s.table[w]>>sh)&15)
	}
	return n
}
