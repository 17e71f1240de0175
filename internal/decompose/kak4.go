// Package decompose implements two-qubit gate decomposition: the exact
// KAK (Cartan) decomposition U = g (K1l x K1r) CAN(x,y,z) (K2l x K2r),
// numerical synthesis into a fixed basis gate (the Cartan ansatz of
// paper Fig. 2 fitted with Nelder-Mead), and the decoherence fidelity
// model of paper Eq. 2.
package decompose

// Allocation-free KAK on the fixed-size kernels: KAK4 runs the same
// magic-basis Cartan decomposition as KAK, but every intermediate —
// the magic conjugation, the Gamma symmetrisation, the joint
// diagonalisation (linalg.JointSymEigen4, a fixed-size Jacobi), the
// real-orthogonal branch search and the tensor split (kronFactor4) —
// lives in linalg.Mat2/Mat4/RMat4 value types. On well-conditioned
// SU(4) inputs the whole path performs zero heap allocations; errors
// (the only allocating exits) mean the input was not decomposable.
//
// The generic KAK on the *linalg.Matrix API (kak_reference_test.go) is
// its reference: the property tests in kak4_test.go pin KAK4's
// reconstruction and canonical coordinates to it.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/weyl"
)

// KAKDecomposition4 is a KAK (Cartan) decomposition in value types:
//
//	U = GlobalPhase * (K1l kron K1r) * CAN(X, Y, Z) * (K2l kron K2r).
//
// (X, Y, Z) are not canonicalised into the Weyl chamber;
// CanonicalCoordinate returns the chamber representative.
type KAKDecomposition4 struct {
	GlobalPhase        complex128
	K1l, K1r, K2l, K2r linalg.Mat2
	X, Y, Z            float64
}

// Reconstruct multiplies the decomposition back together,
// allocation-free.
func (d *KAKDecomposition4) Reconstruct() linalg.Mat4 {
	can := gates.CanonicalMat4(d.X, d.Y, d.Z)
	k1 := d.K1l.Kron(d.K1r)
	k2 := d.K2l.Kron(d.K2r)
	return k1.Mul(can).Mul(k2).Scale(d.GlobalPhase)
}

// CanonicalCoordinate returns the chamber representative of the
// interaction part.
func (d *KAKDecomposition4) CanonicalCoordinate() weyl.Coordinate {
	return weyl.Canonicalize(weyl.Coordinate{X: d.X, Y: d.Y, Z: d.Z})
}

// diag4 builds the diagonal unitary exp(i diag(th)).
func diag4(th [4]float64) linalg.Mat4 {
	var dh linalg.Mat4
	for i := 0; i < 4; i++ {
		dh[i*4+i] = cmplx.Exp(complex(0, th[i]))
	}
	return dh
}

// KAK4 computes the Cartan decomposition of a 4x4 unitary on the
// fixed-size path. Semantics match KAK step for step (magic-basis
// conjugation, joint diagonalisation of Gamma's real and imaginary
// parts, half-angle branch search, SO(4) sign fixes, residual-phase
// absorption); rng seeds the joint diagonalisation's random
// combinations, nil meaning the same fixed default as KAK.
func KAK4(u linalg.Mat4, rng *rand.Rand) (KAKDecomposition4, error) {
	var d KAKDecomposition4
	if !u.IsUnitary(1e-8) {
		return d, fmt.Errorf("decompose: KAK input is not unitary")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(7))
	}
	det := u.Det()
	phase := cmplx.Pow(det, 0.25)
	v := u.Scale(1 / phase)

	b := weyl.MagicBasisMat4()
	bd := weyl.MagicBasisDaggerMat4()
	m := bd.Mul(v).Mul(b)

	gamma := m.Mul(m.Transpose())
	gamma = gamma.Add(gamma.Transpose()).Scale(0.5)
	_, _, q1r, ok := linalg.JointSymEigen4(linalg.RealMat4(gamma), linalg.ImagMat4(gamma), rng)
	if !ok {
		return d, fmt.Errorf("decompose: failed to diagonalise Gamma")
	}
	q1 := q1r.ToMat4()
	q1t := q1.Transpose()
	// Eigenvalues of Gamma in the eigenbasis order of q1.
	dg := q1t.Mul(gamma).Mul(q1)
	var theta [4]float64
	for i := 0; i < 4; i++ {
		theta[i] = cmplx.Phase(dg[i*4+i]) / 2
	}
	// S = Q1 D^{1/2} Q1^T; O = S^dagger M is real orthogonal, so
	// M = (Q1) (D^{1/2}) (Q1^T O).
	dhalf := diag4(theta)
	o := q1.Mul(dhalf).Mul(q1t).Dagger().Mul(m)
	if o.ImagFrobeniusNorm() > 1e-6 {
		// The half-angle branch for some eigenvalue was inconsistent;
		// flipping theta by pi flips the sign of that diagonal entry.
		// Search the 2^4 branch combinations for a real O.
		found := false
		for mask := 0; mask < 16 && !found; mask++ {
			var th [4]float64
			for i := 0; i < 4; i++ {
				th[i] = theta[i]
				if mask&(1<<i) != 0 {
					th[i] += math.Pi
				}
			}
			dh := diag4(th)
			oc := q1.Mul(dh).Mul(q1t).Dagger().Mul(m)
			if oc.ImagFrobeniusNorm() < 1e-6 {
				theta = th
				dhalf = dh
				o = oc
				found = true
			}
		}
		if !found {
			return d, fmt.Errorf("decompose: could not realise a real orthogonal factor")
		}
	}

	o1 := q1
	o2 := q1t.Mul(o)
	// Force both orthogonal factors into SO(4), absorbing signs into D.
	if real(o1.Det()) < 0 {
		for i := 0; i < 4; i++ {
			o1[i*4] = -o1[i*4]
		}
		theta[0] += math.Pi
	}
	if real(o2.Det()) < 0 {
		for j := 0; j < 4; j++ {
			o2[j] = -o2[j]
		}
		theta[0] += math.Pi
	}
	for i := range theta {
		theta[i] = math.Remainder(theta[i], 2*math.Pi)
	}
	dhalf = diag4(theta)

	// Interaction coefficients from the magic-diagonal combo pattern
	// (slot phases: x-y+z, x+y-z, -x-y-z, -x+y+z).
	x := (theta[0] + theta[1]) / 2
	y := (theta[1] + theta[3]) / 2
	z := (theta[0] + theta[3]) / 2
	// Residual global phase: slot2 may disagree by a multiple of pi
	// (an overall +/-1 of the diagonal); absorb it.
	want := cmplx.Exp(complex(0, -x-y-z))
	resid := dhalf[2*4+2] / want
	gphase := phase
	if real(resid) < 0 {
		// diag = -CAN-diag: fold -1 into the phase and negate D.
		gphase = -gphase
		dhalf = dhalf.Scale(-1)
		for i := range theta {
			theta[i] = cmplx.Phase(dhalf[i*4+i])
		}
		x = (theta[0] + theta[1]) / 2
		y = (theta[1] + theta[3]) / 2
		z = (theta[0] + theta[3]) / 2
	}

	k1 := b.Mul(o1).Mul(bd)
	k2 := b.Mul(o2).Mul(bd)
	k1l, k1r, ok := kronFactor4(k1)
	if !ok {
		return d, fmt.Errorf("decompose: left local is not a tensor product")
	}
	k2l, k2r, ok := kronFactor4(k2)
	if !ok {
		return d, fmt.Errorf("decompose: right local is not a tensor product")
	}

	d = KAKDecomposition4{
		GlobalPhase: gphase,
		K1l:         k1l, K1r: k1r,
		K2l: k2l, K2r: k2r,
		X: x, Y: y, Z: z,
	}
	// Fix the residual phase exactly by comparing against the input.
	corr, ok := phaseBetween4(u, d.Reconstruct())
	if !ok {
		return d, fmt.Errorf("decompose: reconstruction differs by more than a phase")
	}
	d.GlobalPhase *= corr
	return d, nil
}

// kronFactor4 splits K = A kron B into its 2x2 tensor factors, the
// fixed-size port of kronFactor (same pivot-block choice,
// det-normalisation and residual check; ok=false replaces its errors).
func kronFactor4(k linalg.Mat4) (a, b linalg.Mat2, ok bool) {
	// Find the 2x2 block (r, s) with the largest norm; that block is
	// a_{rs} * B.
	bestR, bestS, bestNorm := 0, 0, -1.0
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			var n float64
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					v := k[(2*r+i)*4+2*s+j]
					n += real(v)*real(v) + imag(v)*imag(v)
				}
			}
			if n > bestNorm {
				bestNorm, bestR, bestS = n, r, s
			}
		}
	}
	if bestNorm < 1e-12 {
		return a, b, false // numerically zero
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			b[i*2+j] = k[(2*bestR+i)*4+2*bestS+j]
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
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			var blk linalg.Mat2
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					blk[i*2+j] = k[(2*r+i)*4+2*s+j]
				}
			}
			a[r*2+s] = bd.Mul(blk).Trace() / denom
		}
	}
	if !a.Kron(b).EqualApprox(k, 1e-6) {
		return a, b, false // tensor factorisation residual too large
	}
	return a, b, true
}

// phaseBetween4 returns the scalar c (|c| = 1) minimising |u - c*v|,
// or ok=false if the matrices are not phase-proportional.
func phaseBetween4(u, v linalg.Mat4) (complex128, bool) {
	ip := v.TraceMulDagger(u)
	a := cmplx.Abs(ip)
	if a < 1e-9 {
		return 0, false
	}
	c := ip / complex(a, 0)
	if !u.EqualApprox(v.Scale(c), 1e-6) {
		return 0, false
	}
	return c, true
}
