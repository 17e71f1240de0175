// Package mirrorbench generates self-verifying mirror-circuit
// workloads: circuits whose ideal output state is known analytically,
// so a transpiled version can be checked against an *external* oracle
// instead of a reference implementation.
//
// Two generator families are provided, both deterministic in a seed:
//
//   - Randomized mirror circuits (Proctor et al., arXiv:2112.09853):
//     sampled single-qubit Clifford layers interleaved with random
//     CX/CZ entangling layers, a central Pauli randomization layer,
//     then the exact inverse of the first half reflected back. The
//     whole circuit composes to F^-1 P F for Clifford F and Pauli P —
//     itself a Pauli — so the ideal output on |0...0> is a known
//     computational bitstring, tracked classically by conjugating P
//     through the mirrored half (no simulation involved).
//
//   - Mirror quantum-volume circuits (arXiv:2303.02108, the mitiq
//     construction): Layers rounds of Haar-random SU(4) blocks on
//     randomly paired qubits followed by their exact daggers in
//     reverse, composing to the identity. The ideal output is |0...0>.
//
// Because the invariant is basis-independent, it survives every
// transpiler decision — layout, SWAP insertion, mirror-gate
// substitution, block consolidation — and Verify can therefore catch
// whole-pipeline bugs that bit-identity tests against RouteReference
// structurally cannot (both engine and reference being wrong
// together).
//
// Generated gates are shared immutable values: every Clifford, CX, CZ
// and central Pauli op of every circuit holds one of a few package-level
// gates, a QV circuit's SU(4) matrices and their daggers are cut from
// one backing, and an op and its mirrored inverse share their qubit
// slice. Like every gate matrix, none may be written.
package mirrorbench

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// Kind selects a generator family.
type Kind int

// Generator families.
const (
	// RandomizedClifford is the Proctor-style randomized mirror
	// circuit: Clifford + Pauli layers reflected around a central
	// randomization layer. Survival bitstring is generally non-zero.
	RandomizedClifford Kind = iota
	// QuantumVolume is the mirror quantum-volume circuit: Haar SU(4)
	// layers followed by their exact inverses. Survival bitstring is
	// all zeros.
	QuantumVolume
)

func (k Kind) String() string {
	if k == QuantumVolume {
		return "qv"
	}
	return "rc"
}

// Spec is a deterministic generator recipe: the same spec always
// produces the same circuit and expected outcome, on any machine. The
// generators draw math/rand's stream for Seed (stable under the Go 1
// compatibility promise), reproduced bit for bit by the shared
// rng.Source, whose tests pin it to rand.NewSource.
type Spec struct {
	Kind   Kind
	Qubits int
	// Layers is the half-depth: the number of sampled layers before
	// the mirror point. The emitted circuit has 2*Layers layer groups
	// plus (for RandomizedClifford) the central Pauli layer.
	Layers int
	Seed   int64
}

// Name renders the spec as a stable suite row name, e.g.
// "mirror_rc_n5_l4_s1".
func (s Spec) Name() string {
	return fmt.Sprintf("mirror_%s_n%d_l%d_s%d", s.Kind, s.Qubits, s.Layers, s.Seed)
}

// Mirror is a generated mirror circuit together with its
// analytically-known ideal outcome.
type Mirror struct {
	Spec    Spec
	Circuit *circuit.Circuit
	// Expected is the ideal survival bitstring on logical qubits: the
	// whole circuit maps |0...0> to (phase) |Expected>. All zeros for
	// QuantumVolume; the tracked Pauli frame for RandomizedClifford.
	Expected []int
}

// rands holds generators between calls; Generate reseeds one in O(1)
// instead of building a math/rand source (1841 Lehmer steps) per
// circuit.
var rands = sync.Pool{New: func() any { return rand.New(rng.NewSource(1)) }}

// Generate builds the mirror circuit for the spec.
func Generate(s Spec) *Mirror {
	if s.Qubits < 2 {
		panic(fmt.Sprintf("mirrorbench: %d qubits, need at least 2", s.Qubits))
	}
	if s.Layers < 1 {
		panic(fmt.Sprintf("mirrorbench: %d layers, need at least 1", s.Layers))
	}
	r := rands.Get().(*rand.Rand)
	defer rands.Put(r)
	r.Seed(s.Seed)
	switch s.Kind {
	case QuantumVolume:
		return generateQV(s, r)
	case RandomizedClifford:
		return generateRC(s, r)
	}
	panic(fmt.Sprintf("mirrorbench: unknown kind %d", s.Kind))
}

// opBuilder appends ops to a circuit whose op slice and qubit backing
// were sized up front, cutting each op's qubits from the backing with
// a capacity of their own length.
type opBuilder struct {
	c      *circuit.Circuit
	qubits []int
}

func newOpBuilder(s Spec, ops, wires int) *opBuilder {
	c := circuit.New(s.Name(), s.Qubits)
	c.Ops = make([]circuit.Op, 0, ops)
	return &opBuilder{c: c, qubits: make([]int, 0, wires)}
}

func (b *opBuilder) add(g gates.Gate, qs ...int) {
	lo := len(b.qubits)
	b.qubits = append(b.qubits, qs...)
	b.c.Add(g, b.qubits[lo:len(b.qubits):len(b.qubits)]...)
}

// generateQV emits Layers rounds of Haar SU(4) blocks (linalg.RandSU4,
// the Mezzadri construction) on random disjoint pairs, then the
// daggered rounds reflected back. The total unitary is exactly the
// identity, so the survival bitstring is all zeros. Block k's matrix
// and its dagger's are cut from one backing per circuit.
func generateQV(s Spec, r *rand.Rand) *Mirror {
	half := s.Layers * (s.Qubits / 2)
	b := newOpBuilder(s, 2*half, 2*half)
	mats := make([]linalg.Matrix, 2*half) // block k at k, its dagger at half+k
	data := make([]complex128, 16*len(mats))
	for i := range mats {
		mats[i] = linalg.Matrix{Rows: 4, Cols: 4, Data: data[16*i : 16*(i+1) : 16*(i+1)]}
	}
	for l := 0; l < s.Layers; l++ {
		perm := r.Perm(s.Qubits)
		for i := 0; i+1 < s.Qubits; i += 2 {
			k := len(b.c.Ops)
			u := linalg.RandSU4(r)
			dg := u.Dagger()
			copy(mats[k].Data, u[:])
			copy(mats[half+k].Data, dg[:])
			b.add(gates.NewCustom("su4", 2, &mats[k]), perm[i], perm[i+1])
		}
	}
	for k := half - 1; k >= 0; k-- {
		b.c.Add(gates.NewCustom("su4_dg", 2, &mats[half+k]), b.c.Ops[k].Qubits...)
	}
	return &Mirror{Spec: s, Circuit: b.c, Expected: make([]int, s.Qubits)}
}

// The generator's gate alphabet, built once: ops share these values.
var (
	gateX, gateY, gateZ = gates.X(), gates.Y(), gates.Z()
	gateS, gateSdg      = gates.S(), gates.Sdg()
	gateCX, gateCZ      = gates.CX(), gates.CZ()

	// rcCliffords is the 1Q Clifford alphabet of the randomized mirror
	// generator; every member has simple Pauli-conjugation rules (see
	// pauliFrame.conjugate) and an in-alphabet inverse.
	rcCliffords = [...]gates.Gate{gateX, gateY, gateZ, gates.H(), gateS, gateSdg}
)

// generateRC emits Layers rounds of [1Q Clifford layer, entangling
// CX/CZ layer on random disjoint pairs], a central Pauli layer P,
// then the exact inverse rounds reflected back. With F the first
// half, the circuit composes to F^-1 P F — a Pauli, because Clifford
// conjugation preserves the Pauli group — and that Pauli's X-support
// is the survival bitstring.
func generateRC(s Spec, r *rand.Rand) *Mirror {
	pairs := s.Qubits / 2
	half := s.Layers * (s.Qubits + pairs)
	b := newOpBuilder(s, 2*half+s.Qubits, s.Layers*(s.Qubits+2*pairs)+s.Qubits)
	for l := 0; l < s.Layers; l++ {
		for q := 0; q < s.Qubits; q++ {
			b.add(rcCliffords[r.Intn(len(rcCliffords))], q)
		}
		perm := r.Perm(s.Qubits)
		for i := 0; i+1 < s.Qubits; i += 2 {
			if r.Intn(2) == 0 {
				b.add(gateCX, perm[i], perm[i+1])
			} else {
				b.add(gateCZ, perm[i], perm[i+1])
			}
		}
	}

	// Central Pauli randomization layer. It is not part of the
	// mirrored half: it is what makes the ideal outcome a non-trivial
	// bitstring instead of |0...0>, so a transpiler that accidentally
	// drops or reorders whole layers cannot pass by symmetry.
	frame := newPauliFrame(s.Qubits)
	for q := 0; q < s.Qubits; q++ {
		switch r.Intn(4) {
		case 1: // X
			b.add(gateX, q)
			frame.x[q] = true
		case 2: // Y
			b.add(gateY, q)
			frame.x[q], frame.z[q] = true, true
		case 3: // Z
			b.add(gateZ, q)
			frame.z[q] = true
		}
	}

	appendInverses(b.c, half, frame)
	return &Mirror{Spec: s, Circuit: b.c, Expected: frame.bits()}
}

// appendInverses replays the exact inverses of the circuit's first
// half ops in reverse order, each sharing its source op's qubit slice,
// and conjugates the frame by each (P <- g P g^dagger) in application
// order: the second half applies g_1 ... g_m with F^-1 = g_m···g_1 as
// a matrix, so the circuit's total unitary F^-1 P F equals the frame
// after conjugating by g_1 first, then g_2, and so on.
func appendInverses(c *circuit.Circuit, half int, frame *pauliFrame) {
	for i := half - 1; i >= 0; i-- {
		qs := c.Ops[i].Qubits
		g := inverse(c.Ops[i].Gate)
		c.Add(g, qs...)
		frame.conjugate(g.Name, qs)
	}
}

// inverse returns the exact inverse of an alphabet gate: S and Sdg
// swap, and every other member is its own inverse.
func inverse(g gates.Gate) gates.Gate {
	switch g.Name {
	case "s":
		return gateSdg
	case "sdg":
		return gateS
	}
	return g
}

// pauliFrame tracks an n-qubit Pauli operator in the symplectic (x, z)
// representation, ignoring phase: phase shifts the amplitude's sign,
// never the survival bitstring, and Verify compares |amplitude| only.
type pauliFrame struct {
	x, z []bool
}

func newPauliFrame(n int) *pauliFrame {
	return &pauliFrame{x: make([]bool, n), z: make([]bool, n)}
}

// conjugate applies P <- g P g^dagger for the named Clifford gate on
// the given qubits. Only the generator alphabet is supported; an
// unknown name panics rather than silently corrupting the oracle.
func (f *pauliFrame) conjugate(name string, qubits []int) {
	switch name {
	case "x", "y", "z": // Paulis commute with Paulis up to phase
	case "h":
		q := qubits[0]
		f.x[q], f.z[q] = f.z[q], f.x[q]
	case "s", "sdg": // X <-> +-Y; Z fixed
		q := qubits[0]
		f.z[q] = f.z[q] != f.x[q]
	case "cx":
		ctrl, tgt := qubits[0], qubits[1]
		f.x[tgt] = f.x[tgt] != f.x[ctrl]
		f.z[ctrl] = f.z[ctrl] != f.z[tgt]
	case "cz":
		a, b := qubits[0], qubits[1]
		f.z[a] = f.z[a] != f.x[b]
		f.z[b] = f.z[b] != f.x[a]
	default:
		panic(fmt.Sprintf("mirrorbench: no Pauli conjugation rule for gate %q", name))
	}
}

// bits renders the frame's X-support as the survival bitstring: a
// Pauli with X-support b maps |0...0> to (phase) |b>.
func (f *pauliFrame) bits() []int {
	out := make([]int, len(f.x))
	for i, v := range f.x {
		if v {
			out[i] = 1
		}
	}
	return out
}
