// Package rng provides Source, math/rand's additive lagged-Fibonacci
// source with O(1) seeding. Both the routing trials (internal/sabre)
// and the mirror-circuit generator (internal/mirrorbench) draw from
// it, so each reproduces exactly what a rand.NewSource stream would
// give while reseeding for free.
package rng

import "math/rand"

// Source is math/rand's additive lagged-Fibonacci source with O(1)
// seeding. It returns, bit for bit, the stream of rand.NewSource(seed)
// for every seed, so swapping it in for math/rand's source changes no
// draw of any rand.Rand built on it.
//
// rand.NewSource fills its 607-word register by running the Lehmer
// generator x_{k+1} = 48271·x_k mod (2³¹−1) for 1841 steps and XORing
// each word with a fixed "cooked" table. That costs ~13 µs per seed,
// which on small circuits is a large share of a whole routing trial,
// and of generating a whole mirror circuit.
//
// The Lehmer state after k steps is just 48271^k·x₀ mod (2³¹−1), so
// word i is a closed-form function of the reduced seed x₀: three
// modular products against a precomputed power table, shifted and
// XORed with cooked[i]. Seed therefore only records x₀ and rewinds the
// draw counter, and each word is derived on its first read.
//
// Which reads are first reads follows from the draw count alone: draw
// n reads the words at feed = (333−n) mod 607 and tap = (606−n) mod
// 607, so the feed word was never touched before draw 334 (it was the
// tap word of draw n−334) and the tap word never before draw 273 (it
// was the feed word of draw n−273). No per-word bookkeeping is needed,
// and a caller that draws a handful of numbers derives a handful of
// words.
type Source struct {
	x0        uint64 // reduced seed, in [1, 2³¹−1)
	n         int    // draws since the last Seed
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen    = 607 // register length (math/rand rngLen)
	srcTap    = 273 // feedback tap (math/rand rngTap)
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
)

var (
	// srcPow[i] holds 48271^k mod (2³¹−1) for the three Lehmer steps
	// k = 21+3i, 22+3i, 23+3i that build register word i (the seeding
	// loop discards the first 20 steps).
	srcPow [srcLen][3]uint64
	// srcCooked is math/rand's rngCooked table, recovered at init from
	// the first 607 outputs of rand.NewSource(1) rather than copied.
	srcCooked [srcLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= 20+3*srcLen; k++ {
		p = p * lehmerMul % lehmerMod
		if k > 20 {
			i := (k - 21) / 3
			srcPow[i][(k-21)%3] = p
		}
	}
	srcCooked = recoverCooked()
}

// recoverCooked inverts the lagged-Fibonacci recurrence on 607 outputs
// of rand.NewSource(1) to get its initial register, and XORs out the
// Lehmer part of seed 1 to leave the cooked table.
//
// Output k is s_k = s_{k−607} + s_{k−273} (mod 2⁶⁴), where s_{k−607}
// for k < 607 is register word (333−k) mod 607 before the first draw.
// Walking k downward from 606 recovers every s_{k−607}: for k ≥ 273
// the second addend is an output, and for k < 273 it is a register
// word already recovered.
func recoverCooked() [srcLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [srcLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	var s [srcLen]uint64 // s[j] = s_{j−607}
	for k := srcLen - 1; k >= 0; k-- {
		prev := uint64(0)
		if k >= srcTap {
			prev = out[k-srcTap]
		} else {
			prev = s[k-srcTap+srcLen]
		}
		s[k] = out[k] - prev
	}
	var cooked [srcLen]int64
	for k := range s {
		i := (srcLen - srcTap - 1 - k + srcLen) % srcLen
		cooked[i] = int64(s[k]) ^ lehmerWord(1, i)
	}
	return cooked
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = (x & lehmerMod) + (x >> 31)
	x = (x & lehmerMod) + (x >> 31)
	if x >= lehmerMod {
		x -= lehmerMod
	}
	return x
}

// lehmerWord is the Lehmer part of register word i under reduced seed
// x0, as math/rand's seeding loop assembles it from three consecutive
// Lehmer states: u = x₁<<40 ^ x₂<<20 ^ x₃.
func lehmerWord(x0 uint64, i int) int64 {
	pw := &srcPow[i]
	u := int64(mulMod(pw[0], x0)) << 40
	u ^= int64(mulMod(pw[1], x0)) << 20
	u ^= int64(mulMod(pw[2], x0))
	return u
}

// NewSource returns a Source seeded with seed: the stream of
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to rand.NewSource(seed)'s state in O(1).
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	s.n = 0
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's substitute for a zero seed
	}
	s.x0 = uint64(seed)
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	f, t := s.vec[s.feed], s.vec[s.tap]
	if s.n < srcLen-srcTap { // first read of the feed word
		f = lehmerWord(s.x0, s.feed) ^ srcCooked[s.feed]
	}
	if s.n < srcTap { // first read of the tap word, which later draws read again
		t = lehmerWord(s.x0, s.tap) ^ srcCooked[s.tap]
		s.vec[s.tap] = t
	}
	s.n++
	x := f + t
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
