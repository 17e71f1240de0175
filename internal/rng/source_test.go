package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sourceTestSeeds covers math/rand's seed reduction: zero (which it
// replaces), negatives, multiples of 2³¹−1 (which reduce to zero),
// seeds at and past 2³¹, and the seeds the router derives for its
// routing and layout trials (sabre's trialSeed for base seeds 1, 7 and
// -3, trial indices 0-3 and 100-103).
func sourceTestSeeds() []int64 {
	return []int64{
		0, 1, -1, -12345, 2, 89482311,
		lehmerMod, 2 * lehmerMod, -lehmerMod, 7 * lehmerMod,
		1 << 31, 1<<31 + 1, 1 << 40, 1<<63 - 1, -1 << 63,
		-6727768435231495130, 4589088941418372723, -1115557955156296521,
		-1884721499219059094, -6068386596110959373, -9067300368774143810,
		-8886914942739979743, 7649343461253163462, 2073508626991366637,
		4377361446367497992, -1236681628312190552, -6415304547200615098,
	}
}

// TestSourceMatchesMathRand compares 2000 draws per seed, past three
// wraps of the 607-word register, so every draw count from 1 to 2000
// is checked; Int63 and Uint64 draws are interleaved.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceTestSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for k := 0; k < 2000; k++ {
			if k%3 == 0 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, k, g, w)
				}
				continue
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, k, g, w)
			}
		}
	}
}

// TestSourceRandMethods drives both sources through rand.Rand, the way
// their callers consume them, reseeding one Rand in place per seed:
// Intn for tie breaks and Clifford picks, Perm for random layouts and
// qubit pairings, and NormFloat64 and Float64, which Haar-random SU(4)
// sampling draws through. Every seed runs well past 607 draws.
func TestSourceRandMethods(t *testing.T) {
	want := rand.New(rand.NewSource(1))
	got := rand.New(NewSource(1))
	for _, seed := range sourceTestSeeds() {
		want.Seed(seed)
		got.Seed(seed)
		for k := 0; k < 700; k++ {
			if w, g := want.Intn(2), got.Intn(2); w != g {
				t.Fatalf("seed %d: Intn(2) #%d = %d, want %d", seed, k, g, w)
			}
			if k%50 == 0 {
				wp, gp := want.Perm(36), got.Perm(36)
				for i := range wp {
					if wp[i] != gp[i] {
						t.Fatalf("seed %d: Perm(36) #%d differs at %d", seed, k, i)
					}
				}
			}
			if w, g := want.Intn(1000003), got.Intn(1000003); w != g {
				t.Fatalf("seed %d: Intn(1000003) #%d = %d, want %d", seed, k, g, w)
			}
			if w, g := want.NormFloat64(), got.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, k, g, w)
			}
			if w, g := want.Float64(), got.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, k, g, w)
			}
			if k%7 == 0 {
				wp, gp := want.Perm(6), got.Perm(6)
				for i := range wp {
					if wp[i] != gp[i] {
						t.Fatalf("seed %d: Perm(6) #%d differs at %d", seed, k, i)
					}
				}
			}
		}
	}
}

// TestSourceReseedMidStream reseeds after every draw count, so words
// derived, written or untouched in one generation must all read as
// fresh in the next.
func TestSourceReseedMidStream(t *testing.T) {
	got := NewSource(5)
	seeds := sourceTestSeeds()
	for n := 1; n <= 2000; n += 37 {
		seed := seeds[n%len(seeds)]
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < n; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("reseed to %d, draw %d/%d: %d, want %d", seed, k, n, g, w)
			}
		}
	}
}

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("math_rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("rng_source", func(b *testing.B) {
		src := NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
