package match

import (
	"testing"
	"testing/quick"

	"negotiator/internal/sim"
)

// TestRingPickMaskEquivalentToPick pins the property every plane's
// arbitration rests on: PickMask over a candidate bitmask, and
// PickMaskSum over the same mask plus its one-bit-per-word summary, pick
// exactly what Pick with an is-set predicate picks, from any pointer
// position. Half the cases are wide (up to ~3·4096 positions), so the
// summary spans several words — one summary word covers 4096 positions,
// a width no golden fabric reaches. The pointer both advances past each
// winner and jumps at random, and half the mutations land near it so the
// pointer's own word is split between the upper and wrap-around scans.
func TestRingPickMaskEquivalentToPick(t *testing.T) {
	if NewRing(0, nil).PickMask(nil) != -1 || NewRing(0, nil).PickMaskSum(nil, nil) != -1 {
		t.Fatal("empty ring should pick -1")
	}
	f := func(seed int64, wide bool, nRaw uint16, rounds uint8) bool {
		n := int(nRaw%130) + 1
		if wide {
			n = int(nRaw)%(3*4096+130) + 1
		}
		rng := sim.NewRNG(seed)
		ring := NewRing(n, rng)
		members := make([]bool, n)
		mask := make([]uint64, (n+63)>>6)
		sum := make([]uint64, (len(mask)+63)>>6)
		for r := 0; r < int(rounds%50)+1; r++ {
			pos := rng.Intn(n)
			if rng.Intn(2) == 0 {
				pos = ((ring.Pointer()+rng.Intn(128)-64)%n + n) % n
			}
			members[pos] = !members[pos]
			w := pos >> 6
			mask[w] ^= 1 << (uint(pos) & 63)
			if mask[w] != 0 {
				sum[w>>6] |= 1 << (uint(w) & 63)
			} else {
				sum[w>>6] &^= 1 << (uint(w) & 63)
			}
			if rng.Intn(4) == 0 {
				if err := ring.SetPointer(rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			}
			want := ring.Pick(func(p int) bool { return members[p] })
			if got := ring.PickMask(mask); got != want {
				t.Logf("n=%d ptr=%d: PickMask = %d, Pick = %d", n, ring.Pointer(), got, want)
				return false
			}
			if got := ring.PickMaskSum(mask, sum); got != want {
				t.Logf("n=%d ptr=%d: PickMaskSum = %d, Pick = %d", n, ring.Pointer(), got, want)
				return false
			}
			if want >= 0 {
				ring.Advance(want)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRingPick128(b *testing.B) {
	ring := NewRing(128, nil)
	members := make([]bool, 128)
	for i := 0; i < 128; i += 17 {
		members[i] = true
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := ring.Pick(func(p int) bool { return members[p] })
		ring.Advance(w)
	}
}
