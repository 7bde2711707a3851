package scratch

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// TestReuseIsClean: an arena returned dirty must come back from Get with
// a cleared visited set and empty queues — the reset-between-queries
// contract every pooled traversal relies on.
func TestReuseIsClean(t *testing.T) {
	// Pin the pool entry: with GC off, Put → Get returns the same arena.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	s := Get(1000)
	for i := 0; i < 1000; i += 7 {
		s.Visited().Set(i)
	}
	s.Visited2(500).Set(13)
	s.Queue = append(s.Queue, 1, 2, 3)
	s.Queue2 = append(s.Queue2, 4)
	s.Aux = append(s.Aux, 5, 6)
	Put(s)

	r := Get(1000)
	for i := 0; i < 1000; i++ {
		if r.Visited().Test(i) {
			t.Fatalf("reused arena has stale visited bit %d", i)
		}
	}
	if v2 := r.Visited2(500); v2.Test(13) {
		t.Fatal("reused arena has stale secondary visited bit")
	}
	if len(r.Queue) != 0 || len(r.Queue2) != 0 || len(r.Aux) != 0 {
		t.Fatalf("reused arena has stale queues: %d/%d/%d",
			len(r.Queue), len(r.Queue2), len(r.Aux))
	}
	Put(r)
}

// TestGrowAcrossSizes: an arena warmed on a small graph must be safe on a
// larger one (regrown and cleared), and shrinking requests must not
// expose stale high bits later.
func TestGrowAcrossSizes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	s := Get(64)
	s.Visited().Set(63)
	Put(s)

	big := Get(10_000)
	if big.Visited().Test(63) {
		t.Fatal("stale bit survived a grow")
	}
	big.Visited().Set(9_999)
	Put(big)

	small := Get(64)
	if small.Visited().Test(63) {
		t.Fatal("stale bit visible after shrink")
	}
	small.Visited().Set(5)
	Put(small)

	mid := Get(128) // regrow past the shrunken size, short of the capacity
	if mid.Visited().Test(5) || mid.Visited().Test(70) {
		t.Fatal("stale bit visible after regrow")
	}
	mid.Visited().Set(70)
	Put(mid)

	again := Get(10_000)
	if again.Visited().Test(9_999) || again.Visited().Test(70) {
		t.Fatal("stale high bit re-exposed after shrink/grow cycle")
	}
	Put(again)
}

// TestRandomProgramsNeverSeeStaleBits runs seeded random programs of
// Get(n) / Set / Visited2 / Put through one reused arena, over sizes that
// grow, shrink and repeat and with touched counts on both sides of the
// memclr rule (a handful of bits, and more than 1/denseShare of the
// words): after every Get, and every Visited2, every bit reads 0, and
// the bits set since read back exactly.
func TestRandomProgramsNeverSeeStaleBits(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	sizes := []int{0, 1, 63, 64, 65, 1000, 4096, 50_000, 200_000}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 60; step++ {
			n := sizes[rng.Intn(len(sizes))]
			s := Get(n)
			sets := []*Visited{s.Visited()}
			if rng.Intn(2) == 0 {
				sets = append(sets, s.Visited2(n))
			}
			for which, v := range sets {
				for i := 0; i < n; i++ {
					if v.Test(i) {
						t.Fatalf("seed %d step %d: set %d of a fresh Get(%d) has bit %d", seed, step, which, n, i)
					}
				}
				if n == 0 {
					continue
				}
				// Sparse, or dense enough to pass the memclr threshold.
				touch := 1 + rng.Intn(8)
				if rng.Intn(3) == 0 {
					touch = n/wordBits/denseShare + 1 + rng.Intn(n)
				}
				want := make(map[int]bool, touch)
				for ; touch > 0; touch-- {
					i := rng.Intn(n)
					v.Set(i)
					want[i] = true
				}
				for i := 0; i < n; i++ {
					if v.Test(i) != want[i] {
						t.Fatalf("seed %d step %d: set %d bit %d = %v, want %v", seed, step, which, i, v.Test(i), want[i])
					}
				}
			}
			Put(s)
		}
	}
}

// TestResetCostFollowsTouchedWords pins the reset rule on the arena
// itself: Get zeroes exactly the words the previous query made non-zero
// while they are at most 1/denseShare of the set, and the whole set
// beyond that.
func TestResetCostFollowsTouchedWords(t *testing.T) {
	const n = 1 << 20
	nw := n / wordBits
	var s T
	reset := func(touched int) int {
		for i := 0; i < touched; i++ {
			s.visited.Set(i * wordBits)
			s.visited.Set(i*wordBits + 1) // same word: logged once
		}
		return s.visited.reset(n)
	}
	reset(0)
	for _, tc := range []struct{ touched, want int }{
		{0, 0}, {1, 1}, {300, 300},
		{nw / denseShare, nw / denseShare},
		{nw/denseShare + 1, nw},
		{nw, nw},
	} {
		if got := reset(tc.touched); got != tc.want {
			t.Errorf("%d words touched: reset zeroed %d, want %d", tc.touched, got, tc.want)
		}
	}
}

// TestSteadyStateZeroAlloc: after warm-up at a fixed size, Get/Put must
// not allocate.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; zero-alloc cannot hold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	warm := Get(5000)
	warm.Queue = append(warm.Queue, make([]graph.V, 256)...)
	Put(warm)

	allocs := testing.AllocsPerRun(100, func() {
		s := Get(5000)
		s.Queue = append(s.Queue, 1)
		Put(s)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkReset is the measurement behind denseShare: on a 10⁶-bit set,
// make `touched` scattered words non-zero, then empty the set word by
// word from the log, or by one memclr.
func BenchmarkReset(b *testing.B) {
	const n = 1_000_000
	nw := (n + wordBits - 1) / wordBits
	perm := rand.New(rand.NewSource(1)).Perm(nw)
	for _, touched := range []int{4, 64, nw / 16, nw / 8, nw / 4, nw} {
		for _, how := range []string{"log", "memclr"} {
			b.Run(fmt.Sprintf("touched=%d/%s", touched, how), func(b *testing.B) {
				var v Visited
				v.reset(n)
				for i := 0; i < b.N; i++ {
					for _, w := range perm[:touched] {
						v.Set(w * wordBits)
					}
					if how == "log" {
						for _, w := range v.dirty {
							v.words[w] = 0
						}
					} else {
						clear(v.words)
					}
					v.dirty = v.dirty[:0]
				}
			})
		}
	}
}
