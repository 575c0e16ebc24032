package noc

import "math/bits"

// bitset is a fixed-capacity set of small non-negative integers, one bit
// per member packed into 64-bit words. The router pipeline keeps its
// requester sets and the simulator its active-router set in bitsets, so a
// cycle visits only members that exist instead of probing every slot. The
// capacity is fixed at construction; one type covers every size (a 5-port
// router with 17 VCs has 85 requesters, two words).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// next returns the smallest member >= i, or -1 when there is none.
func (b bitset) next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	word := b[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		w++
		if w == len(b) {
			return -1
		}
		word = b[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// nextRR walks the members of a set over [0, n) in round-robin order
// starting at base: it returns the smallest offset >= off whose index
// (base+offset) mod n is a member, or n when the rest of the rotation is
// empty. Offsets [0, n-base) cover indexes base..n-1, the rest wrap to
// 0..base-1.
func (b bitset) nextRR(base, off, n int) int {
	if i := base + off; i < n {
		if j := b.next(i); j != -1 {
			return j - base
		}
		off = n - base
	}
	if j := b.next(base + off - n); j != -1 && j < base {
		return j + n - base
	}
	return n
}
