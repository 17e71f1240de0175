package decompose

// A Cartan (KAK) decomposition on the *linalg.Matrix API, built
// independently of the weyl package: TestKAKCoordinateAgreesWithWeyl
// pins weyl's coordinates to it, and the other tests in
// decompose_test.go pin its reconstruction. It lives in a test file
// because nothing outside the tests calls it.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/weyl"
)

// KAKDecomposition expresses a 4x4 unitary as
//
//	U = GlobalPhase * (K1l kron K1r) * CAN(X, Y, Z) * (K2l kron K2r).
//
// The interaction coefficients (X, Y, Z) are *not* canonicalised into
// the Weyl chamber (they are whatever the magic-basis diagonalisation
// produced); use weyl.Canonicalize for the chamber representative.
type KAKDecomposition struct {
	GlobalPhase        complex128
	K1l, K1r, K2l, K2r *linalg.Matrix
	X, Y, Z            float64
}

// Reconstruct multiplies the decomposition back together on the
// fixed-size kernels (closed-form canonical gate, value-type products;
// the only allocation is the returned matrix).
func (d *KAKDecomposition) Reconstruct() *linalg.Matrix {
	can := canonicalMat4(d.X, d.Y, d.Z)
	k1 := linalg.Mat2From(d.K1l).Kron(linalg.Mat2From(d.K1r))
	k2 := linalg.Mat2From(d.K2l).Kron(linalg.Mat2From(d.K2r))
	return k1.Mul(can).Mul(k2).Scale(d.GlobalPhase).ToMatrix()
}

// canonicalMat4 returns CAN(x, y, z) = exp(i (x XX + y YY + z ZZ)) as
// a Mat4 value, in closed form: the generator is block-diagonal on
// {|00>,|11>} and {|01>,|10>}, where it reads z I + (x-y) X and
// -z I + (x+y) X respectively, so each block exponentiates to a phase
// times a rotation. TestCanonicalMat4MatchesGeneric pins it to the
// generic constructor gates.Canonical.
func canonicalMat4(x, y, z float64) linalg.Mat4 {
	ez := cmplx.Exp(complex(0, z))
	ezc := cmplx.Exp(complex(0, -z))
	cm := complex(math.Cos(x-y), 0)
	sm := complex(0, math.Sin(x-y))
	cp := complex(math.Cos(x+y), 0)
	sp := complex(0, math.Sin(x+y))
	return linalg.Mat4{
		ez * cm, 0, 0, ez * sm,
		0, ezc * cp, ezc * sp, 0,
		0, ezc * sp, ezc * cp, 0,
		ez * sm, 0, 0, ez * cm,
	}
}

// TestCanonicalMat4MatchesGeneric pins the closed-form canonical gate
// to the exponential-product construction of gates.Canonical.
func TestCanonicalMat4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		x := (2*rng.Float64() - 1) * 2
		y := (2*rng.Float64() - 1) * 2
		z := (2*rng.Float64() - 1) * 2
		fast := canonicalMat4(x, y, z)
		ref := gates.Canonical(x, y, z).Mat4()
		if fast.MaxAbsDiff(ref) > 1e-12 {
			t.Fatalf("canonicalMat4(%g,%g,%g) diverges by %g", x, y, z, fast.MaxAbsDiff(ref))
		}
	}
}

// CanonicalCoordinate returns the chamber representative of the
// interaction part.
func (d *KAKDecomposition) CanonicalCoordinate() weyl.Coordinate {
	return weyl.Canonicalize(weyl.Coordinate{X: d.X, Y: d.Y, Z: d.Z})
}

// KAK computes the Cartan decomposition of a 4x4 unitary via the magic
// basis: M = B^dagger V B factors as O1 D O2 with O1, O2 in SO(4) and D
// diagonal unitary; conjugating back yields the local gates and the
// canonical interaction.
func KAK(u *linalg.Matrix, rng *rand.Rand) (*KAKDecomposition, error) {
	if u.Rows != 4 || u.Cols != 4 {
		return nil, fmt.Errorf("decompose: KAK requires a 4x4 matrix")
	}
	if !u.IsUnitary(1e-8) {
		return nil, fmt.Errorf("decompose: KAK input is not unitary")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(7))
	}
	det := u.Det()
	phase := cmplx.Pow(det, 0.25)
	v := u.Scale(1 / phase)

	// Shared immutable basis matrices (only read here).
	b := weyl.MagicBasis()
	bd := weyl.MagicBasisDagger()
	m := bd.Mul(v).Mul(b)

	gamma := m.Mul(m.Transpose())
	gamma = gamma.Add(gamma.Transpose()).Scale(0.5)
	_, _, q1, ok := linalg.JointSymEigen(gamma.RealPart(), gamma.ImagPart(), rng)
	if !ok {
		return nil, fmt.Errorf("decompose: failed to diagonalise Gamma")
	}
	// Eigenvalues of Gamma in the eigenbasis order of q1.
	dg := q1.Transpose().Mul(gamma).Mul(q1)
	theta := make([]float64, 4)
	for i := 0; i < 4; i++ {
		theta[i] = cmplx.Phase(dg.At(i, i)) / 2
	}
	// S = Q1 D^{1/2} Q1^T; O = S^dagger M is real orthogonal, so
	// M = (Q1) (D^{1/2}) (Q1^T O).
	dhalf := linalg.New(4, 4)
	for i := 0; i < 4; i++ {
		dhalf.Set(i, i, cmplx.Exp(complex(0, theta[i])))
	}
	s := q1.Mul(dhalf).Mul(q1.Transpose())
	o := s.Dagger().Mul(m)
	if o.ImagPart().FrobeniusNorm() > 1e-6 {
		// The half-angle branch for some eigenvalue was inconsistent;
		// flipping theta by pi flips the sign of that diagonal entry.
		// Search the 2^4 branch combinations for a real O, on the
		// fixed-size kernels (up to 16 triple products, previously 80
		// matrix allocations).
		m4 := linalg.Mat4From(m)
		q14 := linalg.Mat4From(q1)
		q14t := linalg.Mat4From(q1.Transpose())
		found := false
		for mask := 0; mask < 16 && !found; mask++ {
			var th [4]float64
			var dh linalg.Mat4
			for i := 0; i < 4; i++ {
				th[i] = theta[i]
				if mask&(1<<i) != 0 {
					th[i] += math.Pi
				}
				dh[i*4+i] = cmplx.Exp(complex(0, th[i]))
			}
			sc := q14.Mul(dh).Mul(q14t)
			oc := sc.Dagger().Mul(m4)
			if oc.ToMatrix().ImagPart().FrobeniusNorm() < 1e-6 {
				copy(theta, th[:])
				dhalf = dh.ToMatrix()
				o = oc.ToMatrix()
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("decompose: could not realise a real orthogonal factor")
		}
	}

	o1 := q1.Copy()
	o2 := q1.Transpose().Mul(o)
	// Force both orthogonal factors into SO(4), absorbing signs into D.
	if real(o1.Det()) < 0 {
		negateColumn(o1, 0)
		theta[0] += math.Pi
	}
	if real(o2.Det()) < 0 {
		negateRow(o2, 0)
		theta[0] += math.Pi
	}
	for i := range theta {
		theta[i] = math.Remainder(theta[i], 2*math.Pi)
	}
	dhalf = linalg.New(4, 4)
	for i := 0; i < 4; i++ {
		dhalf.Set(i, i, cmplx.Exp(complex(0, theta[i])))
	}

	// Interaction coefficients from the magic-diagonal combo pattern
	// (slot phases: x-y+z, x+y-z, -x-y-z, -x+y+z).
	x := (theta[0] + theta[1]) / 2
	y := (theta[1] + theta[3]) / 2
	z := (theta[0] + theta[3]) / 2
	// Residual global phase: slot2 may disagree by a multiple of pi
	// (an overall +/-1 of the diagonal); absorb it.
	want := cmplx.Exp(complex(0, -x-y-z))
	resid := dhalf.At(2, 2) / want
	// resid is +1 or -1 (up to noise); take the square root evenly by
	// folding it into the global phase.
	gphase := phase
	if real(resid) < 0 {
		// diag = -CAN-diag: fold -1 into the phase and negate D.
		gphase = -gphase
		dhalf = dhalf.Scale(-1)
		// Recompute interaction from the negated diagonal.
		for i := range theta {
			theta[i] = cmplx.Phase(dhalf.At(i, i))
		}
		x = (theta[0] + theta[1]) / 2
		y = (theta[1] + theta[3]) / 2
		z = (theta[0] + theta[3]) / 2
	}

	k1 := b.Mul(o1).Mul(bd)
	k2 := b.Mul(o2).Mul(bd)
	k1l, k1r, err := kronFactor(k1)
	if err != nil {
		return nil, fmt.Errorf("decompose: left local is not a tensor product: %w", err)
	}
	k2l, k2r, err := kronFactor(k2)
	if err != nil {
		return nil, fmt.Errorf("decompose: right local is not a tensor product: %w", err)
	}

	d := &KAKDecomposition{
		GlobalPhase: gphase,
		K1l:         k1l, K1r: k1r,
		K2l: k2l, K2r: k2r,
		X: x, Y: y, Z: z,
	}
	// Fix the residual phase exactly by comparing one matrix element.
	rec := d.Reconstruct()
	corr, err := phaseBetween(u, rec)
	if err != nil {
		return nil, err
	}
	d.GlobalPhase *= corr
	return d, nil
}

func negateColumn(m *linalg.Matrix, j int) {
	for i := 0; i < m.Rows; i++ {
		m.Set(i, j, -m.At(i, j))
	}
}

func negateRow(m *linalg.Matrix, i int) {
	for j := 0; j < m.Cols; j++ {
		m.Set(i, j, -m.At(i, j))
	}
}

// kronFactor splits a 4x4 matrix K = A kron B into its 2x2 tensor
// factors (up to a phase convention: det-normalised so that the split
// is stable).
func kronFactor(k *linalg.Matrix) (a, b *linalg.Matrix, err error) {
	// Find the 2x2 block (r, s) with the largest norm; that block is
	// a_{rs} * B.
	bestR, bestS, bestNorm := 0, 0, -1.0
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			var n float64
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					v := k.At(2*r+i, 2*s+j)
					n += real(v)*real(v) + imag(v)*imag(v)
				}
			}
			if n > bestNorm {
				bestNorm, bestR, bestS = n, r, s
			}
		}
	}
	if bestNorm < 1e-12 {
		return nil, nil, fmt.Errorf("matrix is numerically zero")
	}
	b = linalg.New(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			b.Set(i, j, k.At(2*bestR+i, 2*bestS+j))
		}
	}
	// Normalise B to unit determinant magnitude for stability.
	bn := math.Sqrt(cmplx.Abs(b.Det()))
	if bn < 1e-9 {
		// Fall back to Frobenius normalisation for near-singular blocks.
		bn = b.FrobeniusNorm() / math.Sqrt2
	}
	b = b.Scale(complex(1/bn, 0))
	// a_{rs} = tr(B^dagger K_{rs}) / tr(B^dagger B).
	bd := b.Dagger()
	denom := bd.Mul(b).Trace()
	a = linalg.New(2, 2)
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			blk := linalg.New(2, 2)
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					blk.Set(i, j, k.At(2*r+i, 2*s+j))
				}
			}
			a.Set(r, s, bd.Mul(blk).Trace()/denom)
		}
	}
	if !a.Kron(b).EqualApprox(k, 1e-6) {
		return nil, nil, fmt.Errorf("tensor factorisation residual too large")
	}
	return a, b, nil
}

// phaseBetween returns the scalar c (|c| = 1) minimising |u - c*v|, or
// an error if the matrices are not phase-proportional.
func phaseBetween(u, v *linalg.Matrix) (complex128, error) {
	ip := v.Dagger().Mul(u).Trace()
	a := cmplx.Abs(ip)
	if a < 1e-9 {
		return 0, fmt.Errorf("decompose: matrices are orthogonal, no relative phase")
	}
	c := ip / complex(a, 0)
	if !u.EqualApprox(v.Scale(c), 1e-6) {
		return 0, fmt.Errorf("decompose: matrices differ by more than a phase")
	}
	return c, nil
}
