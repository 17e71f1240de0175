package weyl

// Closed-form Weyl-coordinate extraction on the fixed-size linalg.Mat4
// kernels. The reference path (gammaSpectrum in weyl.go) diagonalises
// Gamma = M M^T with an iterative randomised Jacobi solver; here the
// gamma spectrum is read off the quartic characteristic polynomial of
// Gamma instead. For U in SU(4), det(M) = 1, so Gamma is a unitary
// symmetric matrix with det 1: its characteristic polynomial is
// self-inversive,
//
//	p(L) = L^4 - e1 L^3 + e2 L^2 - conj(e1) L + 1,  e2 real,
//
// and only two traces (Tr Gamma, Tr Gamma^2) are needed to know it.
// The roots come from Ferrari's closed form, polished by Newton steps
// and — because degenerate spectra (Clifford corners, chamber
// boundaries) make double roots the norm rather than the exception —
// corrected cluster-wise against the derivative polynomial, whose
// roots sit at cluster centroids and stay well-conditioned when the
// quartic's own roots collide. No iteration to convergence, no
// randomness, no allocation.

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/linalg"
)

var (
	magicMat4       = linalg.Mat4From(magicBasis)
	magicDaggerMat4 = linalg.Mat4From(magicBasisDagger)
)

// CoordinateOfFast computes the canonical Weyl coordinate of a 4x4
// unitary on the closed-form fixed-size path. Unlike CoordinateOf and
// CoordinateOfMat4 it does not fall back to the reference
// diagonalisation on failure (exposed for the equivalence tests and
// benchmarks that isolate the fast kernel).
func CoordinateOfFast(u *linalg.Matrix) (Coordinate, error) {
	if u.Rows != 4 || u.Cols != 4 {
		return Coordinate{}, fmt.Errorf("weyl: expected 4x4 unitary, got %dx%d", u.Rows, u.Cols)
	}
	return coordinateOfMat4Fast(linalg.Mat4From(u))
}

// CoordinateOfMat4 computes the coordinate of a Mat4 unitary: the
// closed-form kernel, with the reference diagonalisation as fallback
// for the inputs it rejects (ill-conditioned spectra). This is the
// single fallback-policy site every Mat4 caller shares; the success
// path performs no allocation.
func CoordinateOfMat4(u linalg.Mat4) (Coordinate, error) {
	if c, err := coordinateOfMat4Fast(u); err == nil {
		return c, nil
	}
	return CoordinateOfReference(u.ToMatrix())
}

// coordinateOfMat4Fast is the pure closed-form path.
func coordinateOfMat4Fast(u linalg.Mat4) (Coordinate, error) {
	spec, err := gammaSpectrumMat4(u)
	if err != nil {
		return Coordinate{}, err
	}
	return coordinateFromSpectrum(spec)
}

// gammaSpectrumMat4 returns the four unit-circle eigenvalues of
// Gamma(U) = M M^T, M = B^dagger (U/det^{1/4}) B, via the quartic
// characteristic polynomial.
func gammaSpectrumMat4(u linalg.Mat4) ([4]complex128, error) {
	var out [4]complex128
	// The closed-form path leans on the self-inversive structure of
	// Gamma's characteristic polynomial, which only (near-)unitary
	// inputs provide — and det-normalisation cannot tell them apart,
	// because det(M) = 1 for any invertible input (real reciprocal
	// eigenvalue pairs even satisfy every self-inversive coefficient
	// identity while sitting off the unit circle). Check unitarity
	// directly (value-type arithmetic, no allocation) and hand
	// anything else to the reference path.
	if !u.IsUnitary(1e-7) {
		return out, fmt.Errorf("weyl: input is not unitary; the closed-form Gamma spectrum needs the self-inversive structure")
	}
	det := u.Det()
	v := u.Scale(cmplx.Pow(det, complex(-0.25, 0)))
	m := magicDaggerMat4.Mul(v).Mul(magicMat4)
	g := m.MulTranspose() // symmetric by construction

	// Characteristic polynomial from the power sums: with the
	// structure established, e4 = 1, e3 = conj(e1), e2 real, so only
	// Tr(Gamma) and Tr(Gamma^2) are needed.
	e1 := g.Trace()
	var tr2 complex128
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			tr2 += g[i*4+j] * g[j*4+i]
		}
	}
	e2 := complex(real(e1*e1-tr2)/2, 0)

	roots, ok := unitQuarticRoots(e1, e2)
	if !ok {
		return out, fmt.Errorf("weyl: closed-form Gamma spectrum is ill-conditioned for this input")
	}
	return roots, nil
}

// unitQuarticRoots solves L^4 - e1 L^3 + e2 L^2 - conj(e1) L + 1 = 0,
// whose roots all lie on the unit circle, and projects them there.
func unitQuarticRoots(e1, e2 complex128) ([4]complex128, bool) {
	a, b, c, d := -e1, e2, -cmplx.Conj(e1), complex(1, 0)
	roots := solveQuartic(a, b, c, d)
	for i := range roots {
		roots[i] = polishQuartic(roots[i], a, b, c)
	}
	clusterCorrect(&roots, a, b, c)
	// Conditioning guard. A simple root inherits coefficient noise
	// amplified by 1/|p'| — the product of its gaps to the other
	// roots — so spectra with tiny but genuine gaps (near-degenerate,
	// not certified exact multiples; cluster members share one value
	// and are excluded from the product) cannot be extracted from the
	// characteristic polynomial to the accuracy the callers are
	// promised. Reject them here; CoordinateOf then reruns such inputs
	// through the reference diagonalisation, whose matrix eigenvalues
	// stay perfectly conditioned at any gap.
	const (
		coeffNoise = 4e-14
		maxRootErr = 1e-10
	)
	for i := 0; i < 4; i++ {
		gapProd := 1.0
		for j := 0; j < 4; j++ {
			if j == i || roots[j] == roots[i] {
				continue
			}
			gapProd *= cmplx.Abs(roots[i] - roots[j])
		}
		if coeffNoise > maxRootErr*gapProd {
			return roots, false
		}
	}
	for i, z := range roots {
		az := cmplx.Abs(z)
		if math.IsNaN(az) || math.Abs(az-1) > 0.1 {
			return roots, false
		}
		roots[i] = z / complex(az, 0)
	}
	return roots, true
}

// solveQuartic returns the roots of the monic quartic
// L^4 + a L^3 + b L^2 + c L + d by Ferrari's method.
func solveQuartic(a, b, c, d complex128) [4]complex128 {
	// Depress: L = y - a/4.
	a2 := a * a
	p := b - 3*a2/8
	q := c - a*b/2 + a*a2/8
	r := d - a*c/4 + a2*b/16 - 3*a2*a2/256
	shift := -a / 4

	var ys [4]complex128
	if cmplx.Abs(q) < 1e-10*(1+cmplx.Abs(p)+cmplx.Abs(r)) {
		// Biquadratic: y^2 solves a quadratic.
		disc := cmplx.Sqrt(p*p - 4*r)
		s1 := cmplx.Sqrt((-p + disc) / 2)
		s2 := cmplx.Sqrt((-p - disc) / 2)
		ys = [4]complex128{s1, -s1, s2, -s2}
	} else {
		// Resolvent cubic z^3 + 2p z^2 + (p^2-4r) z - q^2 = 0. Any root
		// factors the quartic; the largest-magnitude one keeps sqrt(z0)
		// and the q/(2s) division well away from zero (the roots'
		// product is q^2 != 0, so z0 != 0).
		z0 := largestCubicRoot(2*p, p*p-4*r, -q*q)
		s := cmplx.Sqrt(z0)
		half := (p + z0) / 2
		qa := half - q/(2*s)
		qb := half + q/(2*s)
		y0, y1 := solveQuadratic(s, qa)
		y2, y3 := solveQuadratic(-s, qb)
		ys = [4]complex128{y0, y1, y2, y3}
	}
	for i := range ys {
		ys[i] += shift
	}
	return ys
}

// solveQuadratic returns the roots of y^2 + s y + a, picking the
// non-cancelling branch and recovering the mate from the root product.
func solveQuadratic(s, a complex128) (complex128, complex128) {
	disc := cmplx.Sqrt(s*s - 4*a)
	// Choose the sign that adds magnitudes instead of cancelling.
	if real(cmplx.Conj(s)*disc) < 0 {
		disc = -disc
	}
	t := -(s + disc) / 2
	if t == 0 {
		return 0, 0
	}
	return t, a / t
}

// cubicRoots returns all roots of the monic cubic z^3 + al z^2 + be z
// + ga via Cardano, each polished by Newton steps.
func cubicRoots(al, be, ga complex128) [3]complex128 {
	// Depress: z = t - al/3.
	p := be - al*al/3
	q := ga - al*be/3 + 2*al*al*al/27
	shift := -al / 3

	var ts [3]complex128
	w := cmplx.Sqrt(q*q/4 + p*p*p/27)
	u := -q/2 + w
	if u2 := -q/2 - w; cmplx.Abs(u2) > cmplx.Abs(u) {
		u = u2
	}
	if u == 0 {
		// p = q = 0: triple root at the shift.
		return [3]complex128{shift, shift, shift}
	}
	cu := cmplx.Pow(u, complex(1.0/3, 0))
	rot := complex(-0.5, math.Sqrt(3)/2)
	for i, root := range [3]complex128{cu, cu * rot, cu * rot * rot} {
		ts[i] = root - p/(3*root)
	}
	var out [3]complex128
	for i, t := range ts {
		z := t + shift
		for it := 0; it < 2; it++ {
			pz := ((z+al)*z+be)*z + ga
			dz := (3*z+2*al)*z + be
			if cmplx.Abs(dz) < 1e-12 {
				break
			}
			z -= pz / dz
		}
		out[i] = z
	}
	return out
}

// largestCubicRoot returns the root of z^3 + al z^2 + be z + ga with
// the largest magnitude.
func largestCubicRoot(al, be, ga complex128) complex128 {
	roots := cubicRoots(al, be, ga)
	best := roots[0]
	for _, z := range roots[1:] {
		if cmplx.Abs(z) > cmplx.Abs(best) {
			best = z
		}
	}
	return best
}

// polishQuartic runs Newton steps on p(L) = L^4 + aL^3 + bL^2 + cL + 1.
func polishQuartic(z, a, b, c complex128) complex128 {
	for it := 0; it < 3; it++ {
		pz := (((z+a)*z+b)*z+c)*z + 1
		dz := ((4*z+3*a)*z+2*b)*z + c
		if cmplx.Abs(dz) < 1e-8 {
			return z
		}
		z -= pz / dz
	}
	return z
}

// clusterCorrect repairs multiple roots. A root of multiplicity m of
// the floating-point quartic genuinely splits into m simple roots
// spread by ~eps^(1/m) (double ~1e-8, triple ~1e-5, quadruple ~2e-4),
// so Newton polishing cannot recover it; but the true multiple root is
// a root of multiplicity m-1 of the derivative, which the staged
// passes below chase down to the fully-conditioned simple-root case:
// pairs are replaced by the nearest root of p', triples by a root of
// p”, a quadruple by -a/4 (each derivative root sits at the cluster
// centroid to second order). The stage tolerances sit well above the
// corresponding split radii and well below any genuine spectral
// feature the chamber geometry produces.
func clusterCorrect(roots *[4]complex128, a, b, c complex128) {
	for _, stage := range [3]struct {
		tol  float64
		size int
	}{
		{5e-7, 2}, // double-root splits ~ sqrt(eps)
		{1e-4, 3}, // triple-root splits ~ eps^(1/3)
		{2e-3, 4}, // quadruple-root splits ~ eps^(1/4)
	} {
		var group [4]int
		for i := range group {
			group[i] = i
		}
		find := func(i int) int {
			for group[i] != i {
				i = group[i]
			}
			return i
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if cmplx.Abs(roots[i]-roots[j]) < stage.tol {
					group[find(j)] = find(i)
				}
			}
		}
		for rep := 0; rep < 4; rep++ {
			var members [4]int
			n := 0
			for i := 0; i < 4; i++ {
				if find(i) == rep {
					members[n] = i
					n++
				}
			}
			if n != stage.size {
				continue
			}
			var centroid complex128
			for _, i := range members[:n] {
				centroid += roots[i]
			}
			centroid /= complex(float64(n), 0)
			var fixed complex128
			switch n {
			case 2:
				// p'(L)/4 = L^3 + (3a/4) L^2 + (b/2) L + c/4.
				fixed = nearestRoot3(cubicRoots(3*a/4, b/2, c/4), centroid)
			case 3:
				// p''(L)/12 = L^2 + (a/2) L + b/6.
				r0, r1 := solveQuadratic(a/2, b/6)
				fixed = r0
				if cmplx.Abs(r1-centroid) < cmplx.Abs(r0-centroid) {
					fixed = r1
				}
			default: // quadruple root
				fixed = -a / 4
			}
			// A true m-fold root annihilates p and its first m-1
			// derivatives; a spurious merge of genuinely-separated
			// roots leaves one of them visibly nonzero (e.g. a pair of
			// simple roots straddling the candidate keeps |p''| at the
			// square of their separation). Gate on all of them — plus
			// the locality of the correction — and keep the polished
			// values otherwise, falling back to the reference path if
			// the downstream spectrum verification then disagrees.
			if cmplx.Abs(fixed-centroid) < stage.tol && multipleRootCertified(fixed, a, b, c, n) {
				for _, i := range members[:n] {
					roots[i] = fixed
				}
			}
		}
	}
}

// multipleRootCertified reports whether z is consistent with being an
// m-fold root of p(L) = L^4 + aL^3 + bL^2 + cL + 1: p and its first
// m-1 derivatives must all vanish to within the coefficient-noise
// floor (the derivative z was solved from is zero by construction; the
// lower ones are the actual certificate). The threshold sits ~1e3
// above the double-precision noise of the trace-derived coefficients
// and far below the residual any genuinely-split configuration leaves.
func multipleRootCertified(z, a, b, c complex128, m int) bool {
	const gate = 3e-10
	p := (((z+a)*z+b)*z+c)*z + 1
	if cmplx.Abs(p) > gate {
		return false
	}
	if m >= 3 {
		d1 := ((4*z+3*a)*z+2*b)*z + c
		if cmplx.Abs(d1) > gate {
			return false
		}
	}
	if m >= 4 {
		d2 := (12*z+6*a)*z + 2*b
		if cmplx.Abs(d2) > gate {
			return false
		}
	}
	return true
}

func nearestRoot3(roots [3]complex128, to complex128) complex128 {
	best := roots[0]
	for _, z := range roots[1:] {
		if cmplx.Abs(z-to) < cmplx.Abs(best-to) {
			best = z
		}
	}
	return best
}
