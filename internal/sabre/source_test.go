package sabre

import (
	"math/rand"
	"testing"
)

// sourceTestSeeds covers math/rand's seed reduction: zero (which it
// replaces), negatives, multiples of 2³¹−1 (which reduce to zero),
// seeds at and past 2³¹, and the seeds trialSeed derives for both
// trial kinds.
func sourceTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, -12345, 2, 89482311,
		lehmerMod, 2 * lehmerMod, -lehmerMod, 7 * lehmerMod,
		1 << 31, 1<<31 + 1, 1 << 40, 1<<63 - 1, -1 << 63,
	}
	for i := 0; i < 4; i++ {
		seeds = append(seeds,
			trialSeed(1, seedStreamRouting, i),
			trialSeed(7, seedStreamLayout, i),
			trialSeed(-3, seedStreamRouting, 100+i))
	}
	return seeds
}

// TestTrialSourceMatchesMathRand compares 2000 draws per seed, past
// three wraps of the 607-word register, so every draw count from 1 to
// 2000 is checked; Int63 and Uint64 draws are interleaved.
func TestTrialSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceTestSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := newTrialSource(seed)
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

// TestTrialSourceRandMethods drives both sources through rand.Rand,
// the way the router consumes them: Intn for tie breaks, Perm for
// random layouts, reseeding one Rand in place between trials.
func TestTrialSourceRandMethods(t *testing.T) {
	want := rand.New(rand.NewSource(1))
	got := rand.New(newTrialSource(1))
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
						t.Fatalf("seed %d: Perm #%d differs at %d", seed, k, i)
					}
				}
			}
			if w, g := want.Intn(1000003), got.Intn(1000003); w != g {
				t.Fatalf("seed %d: Intn(1000003) #%d = %d, want %d", seed, k, g, w)
			}
		}
	}
}

// TestTrialSourceReseedMidStream reseeds after every draw count, so
// words derived, written or untouched in one generation must all read
// as fresh in the next.
func TestTrialSourceReseedMidStream(t *testing.T) {
	got := newTrialSource(5)
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

func BenchmarkTrialSourceSeed(b *testing.B) {
	b.Run("math_rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("trial_source", func(b *testing.B) {
		src := newTrialSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
