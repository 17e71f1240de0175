// Package weyl computes Weyl-chamber (canonical) coordinates of
// two-qubit unitaries and implements the mirror-gate transform that is
// the basis of MIRAGE (paper Eq. 1).
//
// Internally, coordinates live in the canonical chamber
//
//	pi/4 >= X >= Y >= |Z|
//
// (the convention of Huang et al., PRL 130 070601), with the boundary
// identification (pi/4, y, z) ~ (pi/4, y, -z) resolved to Z >= 0.
// In this convention:
//
//	identity  = (0, 0, 0)
//	CNOT/CZ   = (pi/4, 0, 0)
//	iSWAP     = (pi/4, pi/4, 0)
//	sqrtISWAP = (pi/8, pi/8, 0)
//	SWAP      = (pi/4, pi/4, pi/4)
//
// The paper's positive-canonical convention (a in [0, pi/2], c >= 0)
// is available via PaperCoordinate; Eq. 1 of the paper and the
// chamber-internal Mirror agree under that fold (tested).
//
// The coordinate extraction uses the standard magic-basis construction:
// for U in SU(4), Gamma = M M^T with M = B^dagger U B has eigenvalues
// {e^{2i t_k}} where the t_k are signed combinations of the coordinates.
// Candidate coordinates recovered from the eigenphases are verified
// against the measured spectrum, which makes the extraction robust to
// branch and permutation ambiguities.
package weyl

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/gates"
	"repro/internal/linalg"
)

// Coordinate is a point in the canonical Weyl chamber.
type Coordinate struct {
	X, Y, Z float64
}

// Quarter-pi constants used throughout the chamber math.
const (
	quarterPi = math.Pi / 4
	halfPi    = math.Pi / 2
)

// Pre-defined coordinates of common gates.
var (
	IdentityCoord  = Coordinate{0, 0, 0}
	CNOTCoord      = Coordinate{quarterPi, 0, 0}
	ISwapCoord     = Coordinate{quarterPi, quarterPi, 0}
	SwapCoord      = Coordinate{quarterPi, quarterPi, quarterPi}
	SqrtISwapCoord = Coordinate{quarterPi / 2, quarterPi / 2, 0}
)

// RootISwapCoord returns the coordinate of iSWAP^(1/n).
func RootISwapCoord(n int) Coordinate {
	return Coordinate{quarterPi / float64(n), quarterPi / float64(n), 0}
}

// String formats the coordinate in units of pi.
func (c Coordinate) String() string {
	return fmt.Sprintf("(%.4fpi, %.4fpi, %.4fpi)", c.X/math.Pi, c.Y/math.Pi, c.Z/math.Pi)
}

// ApproxEqual reports whether two coordinates agree within tol,
// honouring the (pi/4, y, z) ~ (pi/4, y, -z) boundary identification.
func (c Coordinate) ApproxEqual(o Coordinate, tol float64) bool {
	direct := math.Abs(c.X-o.X) <= tol && math.Abs(c.Y-o.Y) <= tol && math.Abs(c.Z-o.Z) <= tol
	if direct {
		return true
	}
	if math.Abs(c.X-quarterPi) <= tol && math.Abs(o.X-quarterPi) <= tol {
		return math.Abs(c.Y-o.Y) <= tol && math.Abs(c.Z+o.Z) <= tol
	}
	return false
}

// Distance returns the Euclidean distance between two chamber points.
func (c Coordinate) Distance(o Coordinate) float64 {
	dx, dy, dz := c.X-o.X, c.Y-o.Y, c.Z-o.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// InChamber reports whether the raw values satisfy the canonical
// chamber inequalities within tol.
func (c Coordinate) InChamber(tol float64) bool {
	return c.X <= quarterPi+tol &&
		c.X >= c.Y-tol && c.Y >= math.Abs(c.Z)-tol && c.Y >= -tol
}

// Gate returns the canonical gate CAN(X, Y, Z) as a 4x4 unitary.
func (c Coordinate) Gate() *linalg.Matrix {
	return gates.Canonical(c.X, c.Y, c.Z).Matrix()
}

// Spectrum returns the analytic magic-basis Gamma spectrum
// {e^{2i t_k}} of CAN(X, Y, Z), where
// t = (X-Y+Z, X+Y-Z, -X-Y-Z, -X+Y+Z).
func (c Coordinate) Spectrum() [4]complex128 {
	ts := [4]float64{
		c.X - c.Y + c.Z,
		c.X + c.Y - c.Z,
		-c.X - c.Y - c.Z,
		-c.X + c.Y + c.Z,
	}
	var out [4]complex128
	for i, t := range ts {
		out[i] = cmplx.Exp(complex(0, 2*t))
	}
	return out
}

// magicBasis is the "magic" Bell-like basis change B. Conjugating a
// local gate by B yields a real orthogonal matrix, and canonical gates
// become diagonal.
var magicBasis = linalg.FromRows([][]complex128{
	{complex(1/math.Sqrt2, 0), 0, 0, complex(0, 1/math.Sqrt2)},
	{0, complex(0, 1/math.Sqrt2), complex(1/math.Sqrt2, 0), 0},
	{0, complex(0, 1/math.Sqrt2), complex(-1/math.Sqrt2, 0), 0},
	{complex(1/math.Sqrt2, 0), 0, 0, complex(0, -1/math.Sqrt2)},
})

var magicBasisDagger = magicBasis.Dagger()

// gammaSpectrum returns the four unit-circle eigenvalues of
// Gamma(U) = M M^T, M = B^dagger (U/det^{1/4}) B.
func gammaSpectrum(u *linalg.Matrix) ([4]complex128, error) {
	var out [4]complex128
	if u.Rows != 4 || u.Cols != 4 {
		return out, fmt.Errorf("weyl: expected 4x4 unitary, got %dx%d", u.Rows, u.Cols)
	}
	det := u.Det()
	if cmplx.Abs(det) < 1e-6 {
		return out, fmt.Errorf("weyl: matrix is singular (|det| = %g)", cmplx.Abs(det))
	}
	v := u.Scale(cmplx.Pow(det, complex(-0.25, 0)))
	m := magicBasisDagger.Mul(v).Mul(magicBasis)
	gamma := m.Mul(m.Transpose())
	// Symmetrise to clean floating-point noise.
	gamma = gamma.Add(gamma.Transpose()).Scale(0.5)

	x := gamma.RealPart()
	y := gamma.ImagPart()
	rng := rand.New(rand.NewSource(12345))
	xv, yv, _, ok := linalg.JointSymEigen(x, y, rng)
	if !ok {
		return out, fmt.Errorf("weyl: failed to diagonalise Gamma")
	}
	for i := 0; i < 4; i++ {
		lam := complex(xv[i], yv[i])
		// Project onto the unit circle.
		a := cmplx.Abs(lam)
		if a < 1e-6 {
			return out, fmt.Errorf("weyl: Gamma eigenvalue collapsed to zero")
		}
		out[i] = lam / complex(a, 0)
	}
	return out, nil
}

// spectraMatch reports whether the two multisets of unit-circle values
// agree within tol, optionally after multiplying a by sign.
func spectraMatch(a, b [4]complex128, sign complex128, tol float64) bool {
	used := [4]bool{}
	for _, av := range a {
		av *= sign
		found := false
		for j, bv := range b {
			if used[j] {
				continue
			}
			if cmplx.Abs(av-bv) <= tol {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// CoordinateOf computes the canonical Weyl coordinate of a 4x4
// unitary. It runs the closed-form fixed-size kernel
// (CoordinateOfFast) and falls back to the reference Jacobi
// diagonalisation only when the fast path rejects the input.
func CoordinateOf(u *linalg.Matrix) (Coordinate, error) {
	if u.Rows == 4 && u.Cols == 4 {
		return CoordinateOfMat4(linalg.Mat4From(u))
	}
	return CoordinateOfReference(u)
}

// CoordinateOfReference computes the coordinate via the iterative
// randomised Jacobi diagonalisation of Gamma. It is kept as the
// reference implementation the fast path is property-tested against
// (the weyl analogue of the sabre tests' RouteReference).
func CoordinateOfReference(u *linalg.Matrix) (Coordinate, error) {
	spec, err := gammaSpectrum(u)
	if err != nil {
		return Coordinate{}, err
	}
	return coordinateFromSpectrum(spec)
}

// coordinateFromSpectrum recovers the canonical coordinate from a
// measured Gamma spectrum; shared by the fast and reference paths.
func coordinateFromSpectrum(spec [4]complex128) (Coordinate, error) {
	theta := [4]float64{}
	for i, lam := range spec {
		theta[i] = cmplx.Phase(lam) / 2
	}
	// Enumerate ordered selections of 3 eigenphases and pi-branch
	// shifts; recover (x, y, z); keep the first candidate whose
	// analytic spectrum reproduces the measured one (up to a global
	// sign, which corresponds to a pi/2 coordinate shift and is
	// absorbed by canonicalisation).
	const tol = 1e-6
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if j == i {
				continue
			}
			for k := 0; k < 4; k++ {
				if k == i || k == j {
					continue
				}
				for b := 0; b < 8; b++ {
					t1 := theta[i] + float64(b&1)*math.Pi
					t2 := theta[j] + float64((b>>1)&1)*math.Pi
					t3 := theta[k] + float64((b>>2)&1)*math.Pi
					cand := Coordinate{
						X: (t1 + t2) / 2,
						Y: (t2 + t3) / 2,
						Z: (t1 + t3) / 2,
					}
					cs := cand.Spectrum()
					if spectraMatch(cs, spec, 1, tol) || spectraMatch(cs, spec, -1, tol) {
						return Canonicalize(cand), nil
					}
				}
			}
		}
	}
	return Coordinate{}, fmt.Errorf("weyl: no coordinate candidate matched the Gamma spectrum")
}

// MustCoordinateOf is CoordinateOf, panicking on error; intended for
// inputs already known to be valid unitaries.
func MustCoordinateOf(u *linalg.Matrix) Coordinate {
	c, err := CoordinateOf(u)
	if err != nil {
		panic(err)
	}
	return c
}

// --- Canonicalisation ---

// The local-equivalence group acting on raw coordinate triples is
// generated by: coordinate permutations, simultaneous sign flips of
// any two coordinates, and shifts of any single coordinate by pi/2.
// With coordinates reduced mod pi/2 into [0, pi/2), the shifts act
// trivially and a sign flip becomes x -> pi/2 - x, so the whole orbit
// is the 24-element group S3 x (even sign-flip masks) and can be
// enumerated directly — no search, no allocation (Canonicalize sits
// on the coordinate-extraction and Mirror hot paths). Canonicalize
// returns the unique representative inside the canonical chamber,
// using lexicographic order to break boundary ties (which selects
// Z >= 0 on the X = pi/4 face).

// canonPerms and canonFlips enumerate S3 and the even sign-flip masks.
var canonPerms = [6][3]int{
	{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
}
var canonFlips = [4][3]bool{
	{false, false, false}, {true, true, false}, {true, false, true}, {false, true, true},
}

func Canonicalize(c Coordinate) Coordinate {
	start := [3]float64{mod2(c.X), mod2(c.Y), mod2(c.Z)}
	best := Coordinate{}
	found := false

	consider := func(v [3]float64) {
		// Interpret values in [0, pi/2) with z possibly folded to
		// negative: z' = z - pi/2 when z > pi/4.
		x, y, z := v[0], v[1], v[2]
		const eps = 1e-9
		if x > quarterPi+eps || y > quarterPi+eps {
			return
		}
		if z > quarterPi+eps {
			z -= halfPi
		}
		if !(x >= y-eps && y >= math.Abs(z)-eps) {
			return
		}
		cand := Coordinate{X: clamp(x), Y: clamp(y), Z: clampZ(z)}
		if cand.Y > cand.X {
			cand.Y = cand.X
		}
		if math.Abs(cand.Z) > cand.Y {
			if cand.Z > 0 {
				cand.Z = cand.Y
			} else {
				cand.Z = -cand.Y
			}
		}
		if !found || lexLess(best, cand) {
			best = cand
			found = true
		}
	}

	for _, p := range canonPerms {
		for _, f := range canonFlips {
			var w [3]float64
			for i := 0; i < 3; i++ {
				x := start[p[i]]
				if f[i] {
					x = mod2(-x)
				}
				w[i] = x
			}
			consider(w)
		}
	}
	if !found {
		// Cannot happen: the orbit always intersects the chamber. Fall
		// back to the reduced start to avoid returning garbage.
		return Coordinate{start[0], start[1], start[2]}
	}
	return best
}

func mod2(v float64) float64 {
	m := math.Mod(v, halfPi)
	if m < 0 {
		m += halfPi
	}
	// Snap values that are within rounding error of the period edges.
	if halfPi-m < 1e-12 {
		m = 0
	}
	return m
}

func clamp(v float64) float64 {
	if v < 0 && v > -1e-12 {
		return 0
	}
	if v > quarterPi && v < quarterPi+1e-12 {
		return quarterPi
	}
	return v
}

func clampZ(v float64) float64 {
	if math.Abs(v) < 1e-12 {
		return 0
	}
	return clamp(v)
}

func lexLess(a, b Coordinate) bool {
	const eps = 1e-9
	if math.Abs(a.X-b.X) > eps {
		return a.X < b.X
	}
	if math.Abs(a.Y-b.Y) > eps {
		return a.Y < b.Y
	}
	if math.Abs(a.Z-b.Z) > eps {
		return a.Z < b.Z
	}
	return false
}

// --- Mirror transform ---

// Mirror returns the coordinate of SWAP * U for a gate U at coordinate
// c. Because SWAP = e^{i pi/4} CAN(pi/4, pi/4, pi/4) and canonical
// generators commute, the mirror is the canonicalisation of
// c + (pi/4, pi/4, pi/4). This is the chamber-internal form of the
// paper's Eq. 1.
func Mirror(c Coordinate) Coordinate {
	return Canonicalize(Coordinate{c.X + quarterPi, c.Y + quarterPi, c.Z + quarterPi})
}

// --- Paper (positive canonical) convention ---

// PaperCoordinate is a point in the paper's positive-canonical
// convention: A in [0, pi/2], 0 <= C <= B <= min(A, pi/2-A).
type PaperCoordinate struct {
	A, B, C float64
}

// ToPaper folds a chamber coordinate into the paper convention.
func (c Coordinate) ToPaper() PaperCoordinate {
	if c.Z >= 0 {
		return PaperCoordinate{A: c.X, B: c.Y, C: c.Z}
	}
	return PaperCoordinate{A: halfPi - c.X, B: c.Y, C: -c.Z}
}

// --- Haar sampling ---

// HaarSample draws the Weyl coordinate of a Haar-random SU(4) unitary.
// The induced distribution on the chamber is exactly the Haar-weighted
// measure used for coverage volumes and Haar scores.
func HaarSample(rng *rand.Rand) Coordinate {
	for {
		// CoordinateOfMat4 routes ill-conditioned draws through the
		// reference path rather than erroring, which would bias the
		// chamber measure; resample only on genuine failure.
		if c, err := CoordinateOfMat4(linalg.RandSU4(rng)); err == nil {
			return c
		}
	}
}
