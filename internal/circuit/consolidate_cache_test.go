package circuit

// Tests for the coordinate cache under exact keys: every matrix,
// however close to another, gets the coordinate weyl.CoordinateOfMat4
// computes for it, bit for bit, so cache contents never leak into a
// result; the cache stays bounded; and concurrent access is safe
// (exercised by the CI -race lane).

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/weyl"
)

// perturb returns a copy of m with delta added to the real part of
// entry (0, 0).
func perturb(m *linalg.Matrix, delta float64) *linalg.Matrix {
	out := m.Copy()
	out.Set(0, 0, out.At(0, 0)+complex(delta, 0))
	return out
}

// sameBits reports whether two coordinates are bit-identical.
func sameBits(a, b weyl.Coordinate) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// checkOwnCoordinates looks each matrix up in the cache, in order, and
// fails unless every lookup returns the matrix's own coordinate (the
// origin where weyl.CoordinateOfMat4 fails, as the cache falls back).
func checkOwnCoordinates(t *testing.T, mats ...*linalg.Matrix) {
	t.Helper()
	for i, m := range mats {
		want, err := weyl.CoordinateOfMat4(linalg.Mat4From(m))
		if err != nil {
			want = weyl.IdentityCoord
		}
		if got := cachedCoordinate(m); !sameBits(got, want) {
			t.Fatalf("matrix %d: cached coordinate %v, its own is %v", i, got, want)
		}
	}
}

// TestCoordinateCacheQuantisationCollision: matrices closer than any
// rounding step (3e-8 apart) do not share an entry; only a
// bit-identical matrix hits.
func TestCoordinateCacheQuantisationCollision(t *testing.T) {
	ResetCoordinateCache()
	base := gates.CX().Matrix()
	checkOwnCoordinates(t, base, perturb(base, 3e-8), base.Copy())
	if hits, misses := CoordinateCacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestCoordinateCacheQuantisationBoundary: matrices that differ in the
// last bits of one entry, or only in the sign of a zero, get entries of
// their own.
func TestCoordinateCacheQuantisationBoundary(t *testing.T) {
	ResetCoordinateCache()
	base := gates.CX().Matrix()
	negZero := base.Copy()
	negZero.Set(0, 1, complex(math.Copysign(0, -1), 0))
	checkOwnCoordinates(t, perturb(base, 4.9e-8), perturb(base, 5.1e-8), base, negZero)
	if hits, misses := CoordinateCacheStats(); hits != 0 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 0/4", hits, misses)
	}
}

// TestCoordinateCacheKeyIgnoresNoise: two builds of one block unitary,
// one of them through a round trip U·U†, carry different round-off.
// The key does not ignore it: each build gets its own coordinate.
func TestCoordinateCacheKeyIgnoresNoise(t *testing.T) {
	ResetCoordinateCache()
	a := gates.RZZ(0.7).Matrix()
	b := gates.ISwapPow(0.3).Matrix()
	m1 := a.Mul(b)
	m2 := a.Mul(b).Mul(a).Mul(a.Dagger())
	if keyOf(linalg.Mat4From(m1)) == keyOf(linalg.Mat4From(m2)) {
		t.Fatal("the round trip left no round-off to key on")
	}
	checkOwnCoordinates(t, m1, m2)
	if _, misses := CoordinateCacheStats(); misses != 2 {
		t.Fatalf("misses=%d, want one per build", misses)
	}
}

// TestCoordinateCacheDoesNotLeak: a cache filled with near copies of a
// circuit's block interiors leaves its consolidation bit-identical to
// a cold-cache run.
func TestCoordinateCacheDoesNotLeak(t *testing.T) {
	c := New("leak", 4)
	c.Add(gates.RZ(0.1), 0)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.RY(0.3), 0)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.RZZ(0.7), 2, 3)
	c.Add(gates.ISwapPow(0.3), 2, 1)
	// The interiors ConsolidateBlocks builds for c's three blocks.
	var b01 blockInterior
	b01.open(c.Ops[1], 0)
	b01.apply1Q(linalg.Mat2From(gates.RY(0.3).Matrix()), 0)
	b01.apply2Q(c.Ops[3], 0)
	interiors := []linalg.Mat4{b01.interior, orientMat4(c.Ops[4], 2), orientMat4(c.Ops[5], 1)}

	ResetCoordinateCache()
	cold := ConsolidateBlocks(c)
	for _, m := range interiors {
		cachedCoordinateMat4(m)
	}
	if hits, _ := CoordinateCacheStats(); hits != int64(len(interiors)) {
		t.Fatalf("%d of %d interiors hit: the test does not rebuild c's interiors", hits, len(interiors))
	}

	ResetCoordinateCache()
	for _, m := range interiors {
		m[0] += 3e-8
		cachedCoordinateMat4(m)
	}
	warm := ConsolidateBlocks(c)
	for i, op := range cold.Ops {
		if op.Coord == nil {
			continue
		}
		if !sameBits(*op.Coord, *warm.Ops[i].Coord) {
			t.Fatalf("op %d: coordinate %v after a filled cache, %v cold", i, *warm.Ops[i].Coord, *op.Coord)
		}
	}
}

// TestCoordinateCacheBounded: the cache is cleared when it reaches its
// bound, so a long-lived process does not grow it forever.
func TestCoordinateCacheBounded(t *testing.T) {
	ResetCoordinateCache()
	defer ResetCoordinateCache()
	coordCacheMu.Lock()
	for i := 0; i < coordCacheCap; i++ {
		coordCache[coordKey{uint64(i)}] = weyl.IdentityCoord
	}
	coordCacheMu.Unlock()
	cachedCoordinateMat4(linalg.Mat4From(gates.CX().Matrix()))
	coordCacheMu.Lock()
	n := len(coordCache)
	coordCacheMu.Unlock()
	if n != 1 {
		t.Fatalf("%d entries after a miss on a full cache, want 1 (cleared at the bound)", n)
	}
}

func TestCoordinateCacheConcurrent(t *testing.T) {
	ResetCoordinateCache()
	rng := rand.New(rand.NewSource(7))
	mats := make([]*linalg.Matrix, 24)
	for i := range mats {
		mats[i] = linalg.RandSU(4, rng)
	}
	want := make([]weyl.Coordinate, len(mats))
	for i, m := range mats {
		want[i] = cachedCoordinate(m)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (w + rep) % len(mats)
				if got := cachedCoordinate(mats[i]); got != want[i] {
					select {
					case errs <- got.String() + " != " + want[i].String():
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent cache returned inconsistent coordinate: %s", e)
	}
	hits, misses := CoordinateCacheStats()
	if misses != int64(len(mats)) {
		t.Fatalf("concurrent reads caused %d misses, want %d (warm cache)", misses, len(mats))
	}
	if hits != int64(8*50) {
		t.Fatalf("hits=%d, want %d", hits, 8*50)
	}
}

func TestCachedCoordinateMat4WarmAllocs(t *testing.T) {
	ResetCoordinateCache()
	m := linalg.Mat4From(gates.ISwap().Matrix())
	cachedCoordinateMat4(m) // warm the entry
	avg := testing.AllocsPerRun(200, func() {
		cachedCoordinateMat4(m)
	})
	if avg > 0 {
		t.Errorf("warm cachedCoordinateMat4 allocates %.1f objects/op, want 0", avg)
	}
}

// --- Accumulation-kernel benchmarks: the Mat4 block arithmetic vs the
// generic-matrix chain it replaced (the acceptance comparison for the
// consolidation half of the PR). ---

func blockOps() (lead linalg.Mat2, g2 linalg.Mat4) {
	return linalg.Mat2From(gates.RY(0.3).Matrix()), linalg.Mat4From(gates.CX().Matrix())
}

func BenchmarkBlockAccumulateMat4(b *testing.B) {
	lead, g2 := blockOps()
	b.ReportAllocs()
	interior := linalg.IdentityMat4()
	for i := 0; i < b.N; i++ {
		interior = g2.Mul(lead.KronI().Mul(interior))
	}
	_ = interior
}

func BenchmarkBlockAccumulateGeneric(b *testing.B) {
	lead, g2 := blockOps()
	lg, gg := lead.ToMatrix(), g2.ToMatrix()
	id2 := linalg.Identity(2)
	b.ReportAllocs()
	interior := linalg.Identity(4)
	for i := 0; i < b.N; i++ {
		interior = gg.Mul(lg.Kron(id2).Mul(interior))
	}
	_ = interior
}

func BenchmarkConsolidateBlocksWarm(b *testing.B) {
	c := New("bench", 6)
	rng := rand.New(rand.NewSource(9))
	for layer := 0; layer < 20; layer++ {
		for q := 0; q < 6; q++ {
			c.Add(gates.RY(float64(rng.Intn(8))*math.Pi/4), q)
		}
		for q := 0; q+1 < 6; q += 2 {
			c.Add(gates.CX(), q, q+1)
		}
		for q := 1; q+1 < 6; q += 2 {
			c.Add(gates.CX(), q, q+1)
		}
	}
	ResetCoordinateCache()
	ConsolidateBlocks(c) // warm the coordinate cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConsolidateBlocks(c)
	}
}
