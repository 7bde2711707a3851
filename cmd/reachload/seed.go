package main

// Every random stream of a run — graph, query pairs, positive pool,
// verification set, update script — is derived from the one -seed through
// its own splitmix64 sub-seed. Handing one raw seed to both gen.RandomDAG
// and a math/rand pair stream replays the generator's edge endpoints as
// queries: the "uniform" mix silently turns ~25–50 % positive after the
// first ≈n/2 pairs (seed_test.go pins the independence).

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of one named stream from the run seed.
func subSeed(seed uint64, stream string) uint64 {
	h := mix64(seed)
	for i := 0; i < len(stream); i++ {
		h = mix64(h ^ uint64(stream[i]))
	}
	return h
}

// subSeed63 is subSeed for the generators that take an int64 seed.
func subSeed63(seed uint64, stream string) int64 {
	return int64(subSeed(seed, stream) >> 1)
}

// scale maps 32 random bits onto [0, n) without a division.
func scale(r32 uint64, n int) uint32 {
	return uint32((r32 * uint64(n)) >> 32)
}

// pairAt returns the i-th uniform (s, t) pair of the stream keyed by k.
// It is a pure function of (k, i), so any number of workers can draw from
// one stream without sharing state.
func pairAt(k, i uint64, n int) (s, t uint32) {
	h := mix64(k + i*0x9e3779b97f4a7c15)
	return scale(h>>32, n), scale(h&0xffffffff, n)
}
