package sabre

// Per-trial seed derivation. Trials must each own a deterministically
// seeded generator so results are bit-identical at any worker count,
// and the derived seeds must not collide across trial kinds: the old
// additive scheme (Seed + 1000*lt for layouts, Seed + 1000*lt + rt +
// 500000 for routings) collides as soon as 1000*lt crosses the 500000
// offset — layout trial 501 reuses routing trial (1, 0)'s stream.
// splitmix64 (Steele, Lea, Flood — OOPSLA 2014) is a bijective mixer
// with full 64-bit avalanche, so distinct (seed, kind, index) triples
// get distinct 64-bit seeds.
//
// Distinct seeds are not distinct streams, though. The trial generator
// reproduces math/rand's source, which reduces every seed mod 2³¹−1
// (mapping a zero residue to a fixed substitute), so the 64-bit seeds
// fold into about 2³¹ streams, and two triples share a stream whenever
// their seeds agree mod 2³¹−1. In a 20×20 grid plus its 20 layout
// trials the chance that any two share one is about 4·10⁻⁵; two trials
// that do just draw the same tie breaks, and results stay
// deterministic. The derivation is kept as is because changing it
// would change every routed circuit.

// Trial-kind tags; derivations with different tags give unrelated
// seeds (subject to the fold above).
const (
	seedStreamLayout  uint64 = 0x1c69b3f74ac4ed4d
	seedStreamRouting uint64 = 0x9e485565e6a3cd65
)

// splitmix64 is the finalizer of the SplitMix64 generator: a bijection
// on uint64 with full avalanche.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// trialSeed derives the RNG seed for trial `index` of the given kind
// under base seed `seed`. A zero mix is replaced by the stream tag;
// that keeps the output nonzero but, like any other value, it is still
// reduced mod 2³¹−1 by the generator (see above).
func trialSeed(seed int64, stream uint64, index int) int64 {
	h := splitmix64(splitmix64(uint64(seed)^stream) + uint64(index))
	if h == 0 {
		h = stream
	}
	return int64(h)
}
