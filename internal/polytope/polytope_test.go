package polytope

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gates"
	"repro/internal/weyl"
)

func TestChamberVerticesInFullChamber(t *testing.T) {
	fc := FullChamber()
	for _, v := range chamberVertices {
		if !fc.Contains(v, 1e-9) {
			t.Errorf("chamber vertex %v not contained in full chamber", v)
		}
	}
	if !fc.Contains(weyl.SqrtISwapCoord, 1e-9) {
		t.Error("sqrt iSWAP not in full chamber")
	}
	outside := weyl.Coordinate{X: math.Pi/4 + 0.1, Y: 0, Z: 0}
	if fc.Contains(outside, 1e-9) {
		t.Error("point beyond x = pi/4 reported inside chamber")
	}
}

func TestPointRegion(t *testing.T) {
	p := PointRegion("pt", weyl.CNOTCoord, 1e-7)
	if !p.Contains(weyl.CNOTCoord, 1e-9) {
		t.Error("point region does not contain its centre")
	}
	if p.Contains(weyl.ISwapCoord, 1e-9) {
		t.Error("point region contains a distant point")
	}
}

func TestCNOTk2IsZeroZPlane(t *testing.T) {
	p := CNOTk2()
	if !p.Contains(weyl.CNOTCoord, 1e-9) || !p.Contains(weyl.ISwapCoord, 1e-9) {
		t.Error("2-CNOT region must contain CNOT and iSWAP")
	}
	if p.Contains(weyl.SwapCoord, 1e-9) {
		t.Error("2-CNOT region must not contain SWAP")
	}
	if p.Contains(weyl.Coordinate{X: 0.5, Y: 0.3, Z: 0.1}, 1e-9) {
		t.Error("2-CNOT region must not contain z != 0 points")
	}
}

func TestSqrtISwapK2KnownMembers(t *testing.T) {
	p := SqrtISwapK2()
	cases := []struct {
		name string
		c    weyl.Coordinate
		want bool
	}{
		{"cnot", weyl.CNOTCoord, true},
		{"iswap", weyl.ISwapCoord, true},
		{"identity", weyl.IdentityCoord, true},
		{"swap", weyl.SwapCoord, false},
		{"sqiswap", weyl.SqrtISwapCoord, true}, // x = y, z = 0 boundary
		{"near-swap", weyl.Coordinate{X: 0.7, Y: 0.7, Z: 0.6}, false},
		{"interior", weyl.Coordinate{X: 0.6, Y: 0.3, Z: 0.1}, true},
	}
	for _, tc := range cases {
		if got := p.Contains(tc.c, 1e-9); got != tc.want {
			t.Errorf("%s: Contains(%v) = %v, want %v", tc.name, tc.c, got, tc.want)
		}
	}
}

func TestEmpiricalMatchesExactSqrtISwapK2(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical polytope build is slow")
	}
	// The production budget, at the seed NewISwapRootCoverage would
	// give k = 2 of root 2 if it built that region empirically.
	emp := buildEmpirical("emp-siswap-k2", gates.SqrtISwap(), 2, 100*2+2)
	exact := SqrtISwapK2()
	rng := rand.New(rand.NewSource(42))
	disagreements := 0
	const n = 300
	for i := 0; i < n; i++ {
		c := weyl.HaarSample(rng)
		// Allow a margin around the boundary where the empirical
		// support estimate may be slightly conservative.
		inExact := exact.Contains(c, -2e-2)  // strictly inside
		outExact := !exact.Contains(c, 2e-2) // strictly outside
		if inExact && !emp.Contains(c, 1e-6) {
			disagreements++
		}
		if outExact && emp.Contains(c, 1e-6) {
			disagreements++
		}
	}
	if disagreements > n/50 {
		t.Fatalf("empirical sqrt-iSWAP k=2 polytope disagrees with exact on %d/%d interior points", disagreements, n)
	}
}

func TestEmpiricalK1IsPoint(t *testing.T) {
	p := buildEmpirical("r4-k1", gates.SqrtISwapN(4), 1, 1)
	if !p.Contains(weyl.RootISwapCoord(4), 1e-9) {
		t.Error("k=1 region must contain the basis coordinate")
	}
	if p.Contains(weyl.CNOTCoord, 1e-9) {
		t.Error("k=1 region must not contain CNOT")
	}
}

func TestCoverageSetCNOT(t *testing.T) {
	cs := NewCNOTCoverage()
	cases := []struct {
		c     weyl.Coordinate
		wantK int
	}{
		{weyl.CNOTCoord, 1},
		{weyl.ISwapCoord, 2},
		{weyl.SwapCoord, 3},
		{weyl.Coordinate{X: 0.5, Y: 0.3, Z: 0.1}, 3},
	}
	for _, tc := range cases {
		r, ok := cs.MinCost(tc.c, false)
		if !ok || r.K != tc.wantK {
			t.Errorf("CNOT MinCost(%v) = k%d (ok=%v), want k%d", tc.c, r.K, ok, tc.wantK)
		}
	}
	// With mirrors, a SWAP is free: mirror(SWAP) = identity = k0.
	r, ok := cs.MinCost(weyl.SwapCoord, true)
	if !ok || r.K != 0 {
		t.Errorf("CNOT mirror MinCost(SWAP) = k%d, want k0", r.K)
	}
}

func TestCoverageSetSqrtISwap(t *testing.T) {
	cs := NewISwapRootCoverage(2)
	if cs.PerGateCost != 0.5 {
		t.Fatalf("sqrt iSWAP per-gate cost = %g, want 0.5", cs.PerGateCost)
	}
	cases := []struct {
		name   string
		c      weyl.Coordinate
		mirror bool
		wantK  int
	}{
		{"basis", weyl.SqrtISwapCoord, false, 1},
		{"cnot", weyl.CNOTCoord, false, 2},
		{"iswap", weyl.ISwapCoord, false, 2},
		{"swap", weyl.SwapCoord, false, 3},
		{"identity", weyl.IdentityCoord, false, 0},
		{"swap-mirrored", weyl.SwapCoord, true, 0}, // mirror(SWAP) = identity = free
		{"cns", weyl.MustCoordinateOf(gates.CNS().Matrix()), false, 2},
	}
	for _, tc := range cases {
		r, ok := cs.MinCost(tc.c, tc.mirror)
		if !ok || r.K != tc.wantK {
			t.Errorf("%s: MinCost = k%d (ok=%v), want k%d", tc.name, r.K, ok, tc.wantK)
		}
	}
}

func TestMirrorReducesSwapCost(t *testing.T) {
	// The central claim of the paper: with mirrors allowed, the cost of
	// a SWAP in the sqrt-iSWAP basis drops from 3 applications (1.5) to
	// at most 2 applications (1.0) because mirror(SWAP) = identity.
	cs := NewISwapRootCoverage(2)
	std := cs.CostOf(weyl.SwapCoord, false)
	mir := cs.CostOf(weyl.SwapCoord, true)
	if std <= mir {
		t.Fatalf("mirroring did not reduce SWAP cost: std=%g mirror=%g", std, mir)
	}
	if std != 1.5 {
		t.Fatalf("standard SWAP cost = %g, want 1.5", std)
	}
}

func TestHaarVolumeSqrtISwapK2MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo volume is slow")
	}
	// Paper Section III-B: 79.0% standard, 94.4% mirror-inclusive.
	rng := rand.New(rand.NewSource(11))
	p := SqrtISwapK2()
	const n = 4000
	std := HaarVolume(p, n, rng)
	if math.Abs(std-0.79) > 0.03 {
		t.Fatalf("sqrt-iSWAP k=2 Haar volume = %.3f, paper reports 0.790", std)
	}
	mir := HaarVolumeMirror(p, n, rng)
	if math.Abs(mir-0.944) > 0.03 {
		t.Fatalf("sqrt-iSWAP k=2 mirror Haar volume = %.3f, paper reports 0.944", mir)
	}
}

func TestHaarVolumeCNOTk2IsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	if v := HaarVolume(CNOTk2(), 300, rng); v > 0.01 {
		t.Fatalf("CNOT k=2 plane has Haar volume %.3f, want ~0", v)
	}
}

// TestCostCache pins the prices the removed LRU cost cache was keyed
// on, now that every price is a direct coverage-set lookup: SWAP costs
// (3.0, k3) under CNOT, a repeat query answers identically, and the
// mirror flag is part of the price — the mirrored SWAP is free.
func TestCostCache(t *testing.T) {
	cs := NewCNOTCoverage()
	r1, ok := cs.MinCost(weyl.SwapCoord, false)
	if !ok || r1.K != 3 || r1.Cost != 3.0 {
		t.Fatalf("MinCost(SWAP) = (%g, k%d, %v), want (3.0, k3)", r1.Cost, r1.K, ok)
	}
	if r2, _ := cs.MinCost(weyl.SwapCoord, false); r2.Cost != r1.Cost || r2.K != r1.K {
		t.Fatal("coverage set returned a different price on the second query")
	}
	if c := cs.CostOf(weyl.SwapCoord, false); c != r1.Cost {
		t.Fatalf("CostOf(SWAP) = %g, MinCost says %g", c, r1.Cost)
	}
	rm, ok := cs.MinCost(weyl.SwapCoord, true)
	if !ok || rm.K != 0 || rm.Cost != 0 {
		t.Fatalf("MinCost(SWAP, mirror) = (%g, k%d, %v), want (0, k0)", rm.Cost, rm.K, ok)
	}
}

// TestCostCacheConcurrent: with the locked cost cache gone, goroutines
// price straight off one shared coverage set, so concurrent registry
// lookups must hand every goroutine the same set and concurrent
// queries must answer exactly as a serial pass does (run under -race
// in CI).
func TestCostCacheConcurrent(t *testing.T) {
	coords := make([]weyl.Coordinate, 32)
	rng := rand.New(rand.NewSource(21))
	for i := range coords {
		coords[i] = weyl.HaarSample(rng)
	}
	ref := NewISwapRootCoverage(2)
	want := make([][2]CostedRegion, len(coords))
	for i, c := range coords {
		want[i][0], _ = ref.MinCost(c, false)
		want[i][1], _ = ref.MinCost(c, true)
	}

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := NewISwapRootCoverage(2)
			if cs != ref {
				t.Error("registry handed out a second sqrt-iSWAP coverage set")
				return
			}
			for i := 0; i < perWorker; i++ {
				j := (w*perWorker + i) % len(coords)
				m := i % 2
				got, _ := cs.MinCost(coords[j], m == 1)
				if got.K != want[j][m].K || got.Cost != want[j][m].Cost {
					t.Errorf("concurrent MinCost(%v, %v) = (%g, k%d), want (%g, k%d)",
						coords[j], m == 1, got.Cost, got.K, want[j][m].Cost, want[j][m].K)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSupportDirectionsSane(t *testing.T) {
	dirs := supportDirections()
	if len(dirs) < 26 {
		t.Fatalf("only %d support directions", len(dirs))
	}
	for _, d := range dirs {
		n := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
		if math.Abs(n-1) > 1e-12 {
			t.Fatalf("direction %v not normalised", d)
		}
	}
}

func TestChamberSupport(t *testing.T) {
	// Support of direction (1,1,1) over the chamber is attained at SWAP.
	d := [3]float64{1, 1, 1}
	want := 3 * math.Pi / 4
	if got := chamberSupport(d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("chamberSupport((1,1,1)) = %g, want %g", got, want)
	}
}
