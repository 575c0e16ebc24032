package noc

import (
	"math/rand"
	"testing"
)

// TestBitsetNextRR checks next and the round-robin walk against a plain
// scan over membership, at sizes on both sides of the word boundary.
func TestBitsetNextRR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 20, 63, 64, 65, 85, 136} {
		for trial := 0; trial < 20; trial++ {
			b := newBitset(n)
			member := make([]bool, n)
			for i := range member {
				if rng.Intn(4) == 0 {
					member[i] = true
					b.set(i)
				}
			}
			for i := 0; i <= n; i++ {
				want := -1
				for j := i; j < n; j++ {
					if member[j] {
						want = j
						break
					}
				}
				if got := b.next(i); got != want {
					t.Fatalf("n=%d next(%d) = %d, want %d", n, i, got, want)
				}
			}
			for base := 0; base < n; base++ {
				for off := 0; off <= n; off++ {
					want := n
					for k := off; k < n; k++ {
						if member[(base+k)%n] {
							want = k
							break
						}
					}
					if got := b.nextRR(base, off, n); got != want {
						t.Fatalf("n=%d nextRR(base %d, off %d) = %d, want %d", n, base, off, got, want)
					}
				}
			}
		}
	}
}
