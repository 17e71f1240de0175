// Package decompose is the tests' two-qubit synthesis oracle and holds
// only test files, so no binary links it. Synthesize fits the Cartan
// ansatz of paper Fig. 2 (k applications of a basis gate between 1Q
// layers) with Nelder-Mead; the tests use it to check that the
// coverage-polytope cost k of a gate can actually be realised. Routing
// needs only that cost, so no request decomposes a circuit into
// literal basis pulses: as paper Section IV-B puts it, "the actual
// decomposition can be specified later". The Cartan (KAK)
// decomposition on the *linalg.Matrix API lives in
// kak_reference_test.go, where it pins the weyl package's coordinates.
package decompose

import (
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/optimize"
)

// ProcessFidelity returns |Tr(A^dagger B)|^2 / d^2 for equal-sized
// square matrices: 1 iff A and B agree up to global phase.
func ProcessFidelity(a, b *linalg.Matrix) float64 {
	tr := cmplx.Abs(a.Dagger().Mul(b).Trace())
	d := float64(a.Rows)
	return tr * tr / (d * d)
}

// ProcessFidelityMat4 is ProcessFidelity on the fixed-size type,
// computing Tr(A^dagger B) as an elementwise inner product: no
// intermediate matrices, no allocation.
func ProcessFidelityMat4(a, b linalg.Mat4) float64 {
	tr := cmplx.Abs(a.TraceMulDagger(b))
	return tr * tr / 16
}

// AvgGateFidelity converts process fidelity to average gate fidelity:
// (d Fpro + 1) / (d + 1).
func AvgGateFidelity(a, b *linalg.Matrix) float64 {
	d := float64(a.Rows)
	return (d*ProcessFidelity(a, b) + 1) / (d + 1)
}

// SynthesisResult is a fitted Cartan ansatz: k applications of the
// basis gate interleaved with k+1 local layers.
//
//	U ~= L_0 . B . L_1 . B ... B . L_k  (up to global phase)
//
// Locals[i] holds the pair of 1Q matrices of layer i.
type SynthesisResult struct {
	K        int
	Params   []float64
	Locals   [][2]*linalg.Matrix
	Fidelity float64 // process fidelity vs the target
}

// ansatzUnitary builds the ansatz for the given parameter vector
// (6 angles per local layer, k+1 layers) on the fixed-size kernels:
// this is the Nelder-Mead objective's only work, evaluated tens of
// thousands of times per synthesis, and it performs no allocation.
func ansatzUnitary(basis linalg.Mat4, k int, params []float64) linalg.Mat4 {
	u := u3Layer(params[0:6])
	for i := 1; i <= k; i++ {
		u = u.Mul(basis).Mul(u3Layer(params[6*i : 6*i+6]))
	}
	return u
}

// u3Layer builds the 1Q pair layer U3(p0..p2) (x) U3(p3..p5).
func u3Layer(p []float64) linalg.Mat4 {
	return gates.U3Mat2(p[0], p[1], p[2]).Kron(gates.U3Mat2(p[3], p[4], p[5]))
}

// SynthOptions tunes numerical synthesis.
type SynthOptions struct {
	Restarts int     // Nelder-Mead restarts (default 12)
	MaxIter  int     // evaluations per restart (default 4000)
	Target   float64 // stop early when 1 - fidelity < Target (default 1e-10)
	Seed     int64   // RNG seed (default 1)
}

func (o SynthOptions) withDefaults() SynthOptions {
	if o.Restarts <= 0 {
		o.Restarts = 12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 4000
	}
	if o.Target <= 0 {
		o.Target = 1e-10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Synthesize fits a k-layer ansatz in the given basis to the target
// unitary, returning the best result found. The fidelity is reported
// exactly (re-evaluated from the fitted parameters); callers decide
// whether it is acceptable.
func Synthesize(target *linalg.Matrix, basis gates.Gate, k int, opts SynthOptions) *SynthesisResult {
	opts = opts.withDefaults()
	bm := basis.Mat4()
	tm := linalg.Mat4From(target)
	dim := 6 * (k + 1)
	obj := func(p []float64) float64 {
		return 1 - ProcessFidelityMat4(tm, ansatzUnitary(bm, k, p))
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	bestV := math.Inf(1)
	var bestX []float64
	for r := 0; r < opts.Restarts && bestV > opts.Target; r++ {
		start := make([]float64, dim)
		for i := range start {
			start[i] = rng.Float64() * 2 * math.Pi
		}
		x, v := optimize.NelderMead(obj, start, optimize.Options{
			MaxIter: opts.MaxIter, InitialStep: 0.7, Tol: 1e-14,
		})
		if v < bestV {
			bestV, bestX = v, x
		}
	}
	res := &SynthesisResult{K: k, Params: bestX, Fidelity: 1 - bestV}
	for i := 0; i <= k; i++ {
		p := bestX[6*i : 6*i+6]
		res.Locals = append(res.Locals, [2]*linalg.Matrix{
			gates.U3(p[0], p[1], p[2]).Matrix(),
			gates.U3(p[3], p[4], p[5]).Matrix(),
		})
	}
	return res
}

// Unitary rebuilds the synthesised unitary from the fitted locals.
func (r *SynthesisResult) Unitary(basis gates.Gate) *linalg.Matrix {
	u := r.Locals[0][0].Kron(r.Locals[0][1])
	bm := basis.Matrix()
	for i := 1; i <= r.K; i++ {
		u = u.Mul(bm).Mul(r.Locals[i][0].Kron(r.Locals[i][1]))
	}
	return u
}
