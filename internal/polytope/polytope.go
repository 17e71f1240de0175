// Package polytope implements coverage regions in the Weyl chamber:
// the sets of two-qubit gates reachable by a fixed number k of basis
// gate applications interleaved with arbitrary single-qubit gates.
//
// The paper computes these "monodromy polytopes" with the Python
// monodromy package (quantum Littlewood-Richardson inequalities). We
// substitute a two-pronged construction:
//
//   - Exact half-space descriptions for the cases with published
//     characterisations: the CNOT family (Vatan-Williams / Shende et
//     al.: 2 CNOTs reach exactly the Z=0 plane, 3 reach everything)
//     and sqrt-iSWAP with k=2 (Huang et al., PRL 130 070601:
//     X >= Y + |Z|).
//   - Empirical support-function polytopes for the remaining bases
//     (e.g. 3rd/4th roots of iSWAP): the reachable set is convex in
//     the canonical chamber, so maximising d . coords(ansatz) over the
//     interleaved local gates for a family of rational directions d
//     yields its half-space description. Sampled points are always
//     genuinely reachable, so the polytope is exact in every probed
//     facet direction.
//
// The builder is validated against the exact sqrt-iSWAP k=2 region and
// against numerical decomposition (see the decompose package tests).
package polytope

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/weyl"
)

const quarterPi = math.Pi / 4

// Halfspace is the inequality A[0]x + A[1]y + A[2]z <= B.
type Halfspace struct {
	A [3]float64
	B float64
}

// Eval returns A . c - B (non-positive inside).
func (h Halfspace) Eval(c weyl.Coordinate) float64 {
	return h.A[0]*c.X + h.A[1]*c.Y + h.A[2]*c.Z - h.B
}

// Convex is an intersection of half-spaces in the canonical chamber.
// All coverage regions handled here are symmetric under Z -> -Z
// (complex conjugation of the gate class), and Contains honours that
// symmetry.
type Convex struct {
	Label      string
	Halfspaces []Halfspace
}

// Contains reports whether the canonical coordinate c lies in the
// region within tol.
func (p *Convex) Contains(c weyl.Coordinate, tol float64) bool {
	return p.containsRaw(c, tol) || p.containsRaw(weyl.Coordinate{X: c.X, Y: c.Y, Z: -c.Z}, tol)
}

// Violation returns the largest half-space violation of c (0 when the
// point is inside), honouring the Z -> -Z symmetry.
func (p *Convex) Violation(c weyl.Coordinate) float64 {
	v := p.violationRaw(c)
	if v == 0 {
		return 0
	}
	if v2 := p.violationRaw(weyl.Coordinate{X: c.X, Y: c.Y, Z: -c.Z}); v2 < v {
		v = v2
	}
	return v
}

func (p *Convex) violationRaw(c weyl.Coordinate) float64 {
	worst := 0.0
	for _, h := range p.Halfspaces {
		if e := h.Eval(c); e > worst {
			worst = e
		}
	}
	return worst
}

func (p *Convex) containsRaw(c weyl.Coordinate, tol float64) bool {
	for _, h := range p.Halfspaces {
		if h.Eval(c) > tol {
			return false
		}
	}
	return true
}

// chamberHalfspaces returns the inequalities of the canonical chamber
// pi/4 >= x >= y >= |z|.
func chamberHalfspaces() []Halfspace {
	return []Halfspace{
		{A: [3]float64{1, 0, 0}, B: quarterPi}, // x <= pi/4
		{A: [3]float64{-1, 1, 0}, B: 0},        // y <= x
		{A: [3]float64{0, -1, 1}, B: 0},        // z <= y
		{A: [3]float64{0, -1, -1}, B: 0},       // -z <= y
		{A: [3]float64{0, -1, 0}, B: 0},        // y >= 0
	}
}

// FullChamber returns the region covering every two-qubit gate.
func FullChamber() *Convex {
	return &Convex{Label: "full-chamber", Halfspaces: chamberHalfspaces()}
}

// PointRegion returns a region containing only the eps-ball (in the
// max-norm) around c; used for k=1 coverage, which is a single point.
func PointRegion(label string, c weyl.Coordinate, eps float64) *Convex {
	hs := []Halfspace{
		{A: [3]float64{1, 0, 0}, B: c.X + eps},
		{A: [3]float64{-1, 0, 0}, B: -c.X + eps},
		{A: [3]float64{0, 1, 0}, B: c.Y + eps},
		{A: [3]float64{0, -1, 0}, B: -c.Y + eps},
		{A: [3]float64{0, 0, 1}, B: c.Z + eps},
		{A: [3]float64{0, 0, -1}, B: -c.Z + eps},
	}
	return &Convex{Label: label, Halfspaces: hs}
}

// CNOTk2 returns the exact 2-CNOT region: the Z = 0 plane of the
// chamber (zero Haar-weighted volume, as the paper notes for Fig. 3).
func CNOTk2() *Convex {
	hs := append(chamberHalfspaces(),
		Halfspace{A: [3]float64{0, 0, 1}, B: 0},
		Halfspace{A: [3]float64{0, 0, -1}, B: 0},
	)
	return &Convex{Label: "cnot-k2", Halfspaces: hs}
}

// SqrtISwapK2 returns the exact 2-sqrt-iSWAP region X >= Y + |Z|
// (Huang et al.).
func SqrtISwapK2() *Convex {
	hs := append(chamberHalfspaces(),
		Halfspace{A: [3]float64{-1, 1, 1}, B: 0},  // x >= y + z
		Halfspace{A: [3]float64{-1, 1, -1}, B: 0}, // x >= y - z
	)
	return &Convex{Label: "siswap-k2", Halfspaces: hs}
}

// --- Empirical support-function builder ---

// supportDirections returns the probe directions: all non-zero integer
// vectors with entries in {-1, 0, 1}, plus the chamber facet normals'
// near neighbours with a single entry of magnitude 2. Directions are
// deduplicated up to positive scaling.
func supportDirections() [][3]float64 {
	seen := map[[3]int]bool{}
	var dirs [][3]float64
	add := func(a, b, c int) {
		g := gcd3(abs(a), abs(b), abs(c))
		if g == 0 {
			return
		}
		key := [3]int{a / g, b / g, c / g}
		if seen[key] {
			return
		}
		seen[key] = true
		n := math.Sqrt(float64(key[0]*key[0] + key[1]*key[1] + key[2]*key[2]))
		dirs = append(dirs, [3]float64{float64(key[0]) / n, float64(key[1]) / n, float64(key[2]) / n})
	}
	for a := -1; a <= 1; a++ {
		for b := -1; b <= 1; b++ {
			for c := -1; c <= 1; c++ {
				add(a, b, c)
			}
		}
	}
	for a := -2; a <= 2; a++ {
		for b := -2; b <= 2; b++ {
			for c := -2; c <= 2; c++ {
				if abs(a) == 2 || abs(b) == 2 || abs(c) == 2 {
					add(a, b, c)
				}
			}
		}
	}
	return dirs
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func gcd3(a, b, c int) int { return gcd(gcd(a, b), c) }

// chamberVertices are the extreme points of the canonical chamber.
var chamberVertices = []weyl.Coordinate{
	{X: 0, Y: 0, Z: 0},
	{X: quarterPi, Y: 0, Z: 0},
	{X: quarterPi, Y: quarterPi, Z: quarterPi},
	{X: quarterPi, Y: quarterPi, Z: -quarterPi},
}

func chamberSupport(d [3]float64) float64 {
	best := math.Inf(-1)
	for _, v := range chamberVertices {
		s := d[0]*v.X + d[1]*v.Y + d[2]*v.Z
		if s > best {
			best = s
		}
	}
	return best
}

// The search budget of the empirical polytope construction.
const (
	empiricalSamples  = 400 // random ansatz samples shared across directions
	empiricalRestarts = 2   // Nelder-Mead restarts per direction
	empiricalMaxIter  = 350 // Nelder-Mead evaluations per restart
)

// ansatzCoordinate evaluates the Weyl coordinate of
// B . L_1 . B . L_2 ... B (k applications of the basis gate with k-1
// interleaved local layers), where params holds 6 Euler angles per
// local layer. It runs entirely on the fixed-size kernels — this is
// the inner objective of the Nelder-Mead support sweeps, called
// hundreds of thousands of times per empirical polytope.
func ansatzCoordinate(basis linalg.Mat4, k int, params []float64) (weyl.Coordinate, bool) {
	u := basis
	for layer := 0; layer < k-1; layer++ {
		p := params[6*layer : 6*layer+6]
		l := gates.U3Mat2(p[0], p[1], p[2]).Kron(gates.U3Mat2(p[3], p[4], p[5]))
		u = u.Mul(l).Mul(basis)
	}
	c, err := weyl.CoordinateOfMat4(u)
	if err != nil {
		return weyl.Coordinate{}, false
	}
	return c, true
}

// buildEmpirical constructs the coverage polytope for k applications
// of the given basis gate by support-function maximisation, drawing
// its samples and restarts from seed.
func buildEmpirical(label string, basis gates.Gate, k int, seed int64) *Convex {
	if k < 1 {
		panic("polytope: k must be >= 1")
	}
	bm := basis.Mat4()
	if k == 1 {
		c, err := weyl.CoordinateOf(basis.Matrix())
		if err != nil {
			panic(fmt.Sprintf("polytope: basis gate has no coordinate: %v", err))
		}
		return PointRegion(label, c, 1e-7)
	}
	rng := rand.New(rand.NewSource(seed))
	dim := 6 * (k - 1)

	// Shared random samples: points plus their parameters, reused as
	// warm starts for every direction.
	type sample struct {
		params []float64
		coord  weyl.Coordinate
	}
	samples := make([]sample, 0, empiricalSamples)
	for len(samples) < empiricalSamples {
		p := make([]float64, dim)
		if len(samples)%3 == 0 {
			// Structured draw: Clifford-like angles (multiples of
			// pi/2). Interleavers such as X (x) I conjugate the XY
			// interaction into its Y-inverted twin, so products like
			// B (X x I) B (X x I)... land exactly on boundary classes —
			// CAN(k*beta, 0, 0) includes CNOT at k*beta = pi/4 — that
			// generic random locals only approach asymptotically.
			for i := range p {
				p[i] = float64(rng.Intn(4)) * math.Pi / 2
			}
		} else {
			for i := range p {
				p[i] = rng.Float64() * 2 * math.Pi
			}
		}
		if c, ok := ansatzCoordinate(bm, k, p); ok {
			samples = append(samples, sample{p, c})
		}
	}
	// Deterministic boundary generators. Interleaving the basis with
	// X (x) I flips the sign of its YY component, so
	// B (XxI) B (XxI) = CAN(2*beta, 0, 0): repeating the pattern walks
	// the XX axis and reaches exact boundary classes — CNOT at
	// k*beta = pi/4 — that random locals miss. The identity pattern
	// walks the XX=YY edge (iSWAP family) instead.
	xLayer := []float64{math.Pi, 0, math.Pi, 0, 0, 0}
	idLayer := []float64{0, 0, 0, 0, 0, 0}
	for _, pattern := range [][]float64{xLayer, idLayer} {
		p := make([]float64, 0, dim)
		for layer := 0; layer < k-1; layer++ {
			p = append(p, pattern...)
		}
		if c, ok := ansatzCoordinate(bm, k, p); ok {
			samples = append(samples, sample{p, c})
		}
	}
	// Mixed pattern: X-interleavers in the first half only.
	{
		p := make([]float64, 0, dim)
		for layer := 0; layer < k-1; layer++ {
			if layer%2 == 0 {
				p = append(p, xLayer...)
			} else {
				p = append(p, idLayer...)
			}
		}
		if c, ok := ansatzCoordinate(bm, k, p); ok {
			samples = append(samples, sample{p, c})
		}
	}

	dirs := supportDirections()
	hs := make([]Halfspace, 0, len(dirs)+5)
	full := true
	for _, d := range dirs {
		// Warm start: the best sample in this direction.
		bestIdx, bestVal := 0, math.Inf(-1)
		for i, s := range samples {
			v := d[0]*s.coord.X + d[1]*s.coord.Y + d[2]*s.coord.Z
			if v > bestVal {
				bestVal, bestIdx = v, i
			}
		}
		obj := func(p []float64) float64 {
			c, ok := ansatzCoordinate(bm, k, p)
			if !ok {
				return 1e9
			}
			return -(d[0]*c.X + d[1]*c.Y + d[2]*c.Z)
		}
		_, negBest := optimize.Minimize(obj, dim, samples[bestIdx].params, empiricalRestarts, math.Pi, rng,
			optimize.Options{MaxIter: empiricalMaxIter, InitialStep: 0.3})
		h := -negBest
		if bestVal > h {
			h = bestVal
		}
		// Boundary slack: the numerically-maximised support approaches
		// the true facet from below, so gate classes lying exactly on a
		// facet (CNOT on the 3x 3rd-root-iSWAP boundary, SWAP on the
		// k = 2n boundary, ...) would be excluded without a small
		// outward dilation. 2.5e-3 rad is far below any polytope
		// feature and far above the optimiser's residual.
		const slack = 5e-3
		ch := chamberSupport(d)
		if h < ch-slack {
			full = false
		}
		if h > ch-slack {
			h = ch // the region cannot exceed the chamber
		}
		// The Z -> -Z symmetry of the reachable set is handled by
		// Convex.Contains; record h as measured.
		hs = append(hs, Halfspace{A: d, B: h + slack})
	}
	if full {
		p := FullChamber()
		p.Label = label
		return p
	}
	hs = append(hs, chamberHalfspaces()...)
	return &Convex{Label: label, Halfspaces: hs}
}

// --- Coverage sets ---

// CostedRegion couples a region with the number of basis applications
// and its time cost.
type CostedRegion struct {
	K      int
	Cost   float64
	Region *Convex
}

// CoverageSet is the ordered (by cost) list of coverage regions for a
// basis gate, used to answer "what is the cheapest circuit that
// implements this coordinate?".
type CoverageSet struct {
	Name        string
	Basis       gates.Gate
	BasisCoord  weyl.Coordinate
	PerGateCost float64 // time cost of one basis application (iSWAP = 1.0)
	Root        int     // iSWAP root n for iSWAP^(1/n) sets, 0 otherwise
	Regions     []CostedRegion
}

// MinCost returns the cheapest region containing c. If mirror is true,
// a region also matches when it contains Mirror(c) (the mirage-SWAP
// case). The boolean result is false when nothing matches (which
// cannot happen when the last region is the full chamber).
func (cs *CoverageSet) MinCost(c weyl.Coordinate, mirror bool) (CostedRegion, bool) {
	const tol = 1e-7
	var mc weyl.Coordinate
	if mirror {
		mc = weyl.Mirror(c)
	}
	for _, r := range cs.Regions {
		if r.Region.Contains(c, tol) {
			return r, true
		}
		if mirror && r.Region.Contains(mc, tol) {
			return r, true
		}
	}
	return CostedRegion{}, false
}

// CostOf returns the minimum time cost for c (standard or mirror-
// inclusive); it falls back to the most expensive region if no region
// contains the point (should not happen for complete sets).
func (cs *CoverageSet) CostOf(c weyl.Coordinate, mirror bool) float64 {
	if r, ok := cs.MinCost(c, mirror); ok {
		return r.Cost
	}
	return cs.Regions[len(cs.Regions)-1].Cost
}

// MaxK returns the largest basis-application count in the set.
func (cs *CoverageSet) MaxK() int { return cs.Regions[len(cs.Regions)-1].K }

// NewCNOTCoverage returns the exact CNOT-basis coverage set
// (k = 1, 2, 3 with unit per-gate cost — CNOT is normalised to the
// same duration as iSWAP for the Fig. 3 comparison).
func NewCNOTCoverage() *CoverageSet {
	cx := gates.CX()
	return &CoverageSet{
		Name:        "cnot",
		Basis:       cx,
		BasisCoord:  weyl.CNOTCoord,
		PerGateCost: 1.0,
		Regions: []CostedRegion{
			{K: 0, Cost: 0, Region: PointRegion("identity", weyl.IdentityCoord, 1e-7)},
			{K: 1, Cost: 1.0, Region: PointRegion("cnot-k1", weyl.CNOTCoord, 1e-7)},
			{K: 2, Cost: 2.0, Region: CNOTk2()},
			{K: 3, Cost: 3.0, Region: FullChamber()},
		},
	}
}

var (
	iswapRootCache   = map[int]*CoverageSet{}
	iswapRootCacheMu sync.Mutex
)

// NewISwapRootCoverage returns the coverage set for the basis
// iSWAP^(1/n) with per-gate cost 1/n. For n = 2 the k = 2 region is
// the exact Huang et al. polytope; other regions are built with the
// empirical support-function construction (and cached per n).
func NewISwapRootCoverage(n int) *CoverageSet {
	iswapRootCacheMu.Lock()
	defer iswapRootCacheMu.Unlock()
	if cs, ok := iswapRootCache[n]; ok {
		return cs
	}
	basis := gates.SqrtISwapN(n)
	cs := &CoverageSet{
		Name:        fmt.Sprintf("iswap^1/%d", n),
		Basis:       basis,
		BasisCoord:  weyl.RootISwapCoord(n),
		PerGateCost: 1.0 / float64(n),
		Root:        n,
	}
	// Local (identity-class) blocks are free: k = 0. This is what makes
	// the mirror of a lone SWAP cost nothing.
	cs.Regions = append(cs.Regions, CostedRegion{
		K: 0, Cost: 0, Region: PointRegion("identity", weyl.IdentityCoord, 1e-7),
	})
	maxK := 2*n + 2 // safe upper bound; SWAP needs the most applications
	for k := 1; k <= maxK; k++ {
		var region *Convex
		label := fmt.Sprintf("%s-k%d", cs.Name, k)
		switch {
		case k == 1:
			region = PointRegion(label, cs.BasisCoord, 1e-7)
		case n == 2 && k == 2:
			region = SqrtISwapK2()
		case n == 2 && k >= 3:
			region = FullChamber()
		default:
			region = buildEmpirical(label, basis, k, int64(100*n+k))
		}
		cs.Regions = append(cs.Regions, CostedRegion{
			K:      k,
			Cost:   float64(k) / float64(n),
			Region: region,
		})
		if isFull(region) {
			break
		}
	}
	iswapRootCache[n] = cs
	return cs
}

func isFull(p *Convex) bool {
	// A region equals the chamber iff it contains all chamber vertices.
	for _, v := range chamberVertices {
		if !p.Contains(v, 1e-6) {
			return false
		}
	}
	return true
}

// IsFull reports whether the region covers the entire chamber.
func IsFull(p *Convex) bool { return isFull(p) }

// HaarVolume estimates the Haar-weighted volume fraction of the region
// by Monte-Carlo sampling of Haar-random gates.
func HaarVolume(p *Convex, samples int, rng *rand.Rand) float64 {
	inside := 0
	for i := 0; i < samples; i++ {
		if p.Contains(weyl.HaarSample(rng), 1e-7) {
			inside++
		}
	}
	return float64(inside) / float64(samples)
}

// HaarVolumeMirror estimates the Haar-weighted volume of the
// mirror-inclusive region (c matches if c or Mirror(c) is covered).
func HaarVolumeMirror(p *Convex, samples int, rng *rand.Rand) float64 {
	inside := 0
	for i := 0; i < samples; i++ {
		c := weyl.HaarSample(rng)
		if p.Contains(c, 1e-7) || p.Contains(weyl.Mirror(c), 1e-7) {
			inside++
		}
	}
	return float64(inside) / float64(samples)
}
