package mirrorbench

import (
	"math"
	"testing"
)

// survivalFromUnitary brute-forces the ideal survival fidelity of a
// generated mirror: |<expected|U|0...0>|^2 from the dense circuit
// unitary. The generators never simulate — this is the independent
// check that the Pauli-frame tracking (and the QV identity) is right.
func survivalFromUnitary(t *testing.T, m *Mirror) float64 {
	t.Helper()
	u, err := m.Circuit.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	n := m.Circuit.NumQubits
	row := 0
	for q, bit := range m.Expected {
		if bit != 0 {
			row |= 1 << uint(n-1-q)
		}
	}
	amp := u.At(row, 0)
	return real(amp)*real(amp) + imag(amp)*imag(amp)
}

// TestGeneratorsComposeToKnownBitstring sweeps both families across
// widths, depths and seeds: the generated circuit's unitary must send
// |0...0> exactly to the analytically tracked bitstring. This pins the
// Pauli conjugation rules (H, S/Sdg, CX, CZ) against brute force.
func TestGeneratorsComposeToKnownBitstring(t *testing.T) {
	for _, kind := range []Kind{RandomizedClifford, QuantumVolume} {
		for _, qubits := range []int{2, 3, 4, 5} {
			for _, layers := range []int{1, 2, 4} {
				for seed := int64(1); seed <= 5; seed++ {
					s := Spec{Kind: kind, Qubits: qubits, Layers: layers, Seed: seed}
					m := Generate(s)
					if got := survivalFromUnitary(t, m); math.Abs(1-got) > 1e-9 {
						t.Errorf("%s: ideal survival fidelity %.12f, want 1 (expected bits %v)",
							s.Name(), got, m.Expected)
					}
				}
			}
		}
	}
}

// TestRandomizedMirrorsHitNonZeroBitstrings: the central Pauli layer
// must produce non-trivial survival bitstrings for some seeds —
// otherwise the oracle degenerates to the QV all-zeros case and loses
// its sensitivity to dropped or reordered layers.
func TestRandomizedMirrorsHitNonZeroBitstrings(t *testing.T) {
	nonZero := 0
	for seed := int64(1); seed <= 10; seed++ {
		m := Generate(Spec{Kind: RandomizedClifford, Qubits: 5, Layers: 3, Seed: seed})
		for _, b := range m.Expected {
			if b != 0 {
				nonZero++
				break
			}
		}
	}
	if nonZero == 0 {
		t.Fatal("all 10 seeds produced the all-zeros bitstring; the Pauli layer is not randomizing")
	}
}

// TestGenerateDeterministic: identical specs must produce identical
// circuits and outcomes — the property the distributed benchsuite and
// CI gate rely on (coordinator and workers regenerate from the spec).
func TestGenerateDeterministic(t *testing.T) {
	for _, s := range []Spec{
		{Kind: RandomizedClifford, Qubits: 5, Layers: 4, Seed: 1},
		{Kind: QuantumVolume, Qubits: 4, Layers: 3, Seed: 7},
	} {
		a, b := Generate(s), Generate(s)
		if len(a.Circuit.Ops) != len(b.Circuit.Ops) {
			t.Fatalf("%s: op counts differ (%d vs %d)", s.Name(), len(a.Circuit.Ops), len(b.Circuit.Ops))
		}
		for i := range a.Circuit.Ops {
			oa, ob := a.Circuit.Ops[i], b.Circuit.Ops[i]
			if oa.Gate.Name != ob.Gate.Name || len(oa.Qubits) != len(ob.Qubits) {
				t.Fatalf("%s: op %d differs (%s vs %s)", s.Name(), i, oa.String(), ob.String())
			}
			for j := range oa.Qubits {
				if oa.Qubits[j] != ob.Qubits[j] {
					t.Fatalf("%s: op %d wires differ (%s vs %s)", s.Name(), i, oa.String(), ob.String())
				}
			}
			ma, mb := oa.Gate.Matrix(), ob.Gate.Matrix()
			for k, v := range ma.Data {
				if v != mb.Data[k] {
					t.Fatalf("%s: op %d matrices differ at %d", s.Name(), i, k)
				}
			}
		}
		for q := range a.Expected {
			if a.Expected[q] != b.Expected[q] {
				t.Fatalf("%s: expected bitstrings differ (%v vs %v)", s.Name(), a.Expected, b.Expected)
			}
		}
	}
}

// TestMirrorCircuitsAreRoutableWorkloads: the generated circuits must
// be valid suite rows — 1Q/2Q ops only, at least one 2Q gate, an
// interaction graph dense enough to exercise routing (some vertex of
// degree >= 2, the bench suite's admission check), and a palindromic
// gate count (first half + optional Pauli layer + mirrored half).
func TestMirrorCircuitsAreRoutableWorkloads(t *testing.T) {
	for _, s := range []Spec{
		{Kind: RandomizedClifford, Qubits: 5, Layers: 4, Seed: 1},
		{Kind: RandomizedClifford, Qubits: 6, Layers: 6, Seed: 2},
		{Kind: QuantumVolume, Qubits: 4, Layers: 3, Seed: 7},
		{Kind: QuantumVolume, Qubits: 5, Layers: 4, Seed: 3},
	} {
		m := Generate(s)
		c := m.Circuit
		if c.NumQubits != s.Qubits {
			t.Errorf("%s: %d qubits, want %d", s.Name(), c.NumQubits, s.Qubits)
		}
		if c.Count2Q() == 0 {
			t.Errorf("%s: no 2Q gates", s.Name())
		}
		for _, op := range c.Ops {
			if len(op.Qubits) > 2 {
				t.Errorf("%s: %d-qubit op %s", s.Name(), len(op.Qubits), op.String())
			}
		}
		deg := map[int]map[int]bool{}
		for p := range c.InteractionPairs() {
			for k := 0; k < 2; k++ {
				if deg[p[k]] == nil {
					deg[p[k]] = map[int]bool{}
				}
				deg[p[k]][p[1-k]] = true
			}
		}
		maxDeg := 0
		for _, nbs := range deg {
			if len(nbs) > maxDeg {
				maxDeg = len(nbs)
			}
		}
		if maxDeg < 2 {
			t.Errorf("%s: interaction graph is a matching (max degree %d); pick a different seed",
				s.Name(), maxDeg)
		}
	}
}

func TestSpecName(t *testing.T) {
	s := Spec{Kind: QuantumVolume, Qubits: 4, Layers: 3, Seed: 9}
	if got := s.Name(); got != "mirror_qv_n4_l3_s9" {
		t.Fatalf("Name() = %q", got)
	}
	s.Kind = RandomizedClifford
	if got := s.Name(); got != "mirror_rc_n4_l3_s9" {
		t.Fatalf("Name() = %q", got)
	}
}

// benchSpecs are the shapes BenchmarkGenerate times: both kinds at the
// largest small-mirror width and depth.
var benchSpecs = []Spec{
	{Kind: RandomizedClifford, Qubits: 6, Layers: 6},
	{Kind: QuantumVolume, Qubits: 6, Layers: 6},
}

// BenchmarkGenerate times one circuit per iteration, a new seed each.
func BenchmarkGenerate(b *testing.B) {
	for _, s := range benchSpecs {
		b.Run(s.Kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Seed = int64(i)
				Generate(s)
			}
		})
	}
}

// maxGenerateAllocs bounds the heap allocations of one Generate call:
// the name, the circuit with its op slice and qubit backing, one Perm
// per layer, the Pauli frame or the SU(4) matrix backing, Expected and
// the Mirror, 9 + Layers in all. A math/rand source per circuit adds
// one, a gate matrix or qubit slice per op dozens. The race detector
// makes sync.Pool drop pooled generators at random; each drop rebuilds
// one (two objects).
func maxGenerateAllocs(s Spec) float64 {
	n := float64(9 + s.Layers)
	if raceEnabled {
		n += 4
	}
	return n
}

// TestGenerateAllocs pins the allocation count of Generate on both
// kinds at 6 qubits x 6 layers, averaged over 50 calls with a new seed
// each.
func TestGenerateAllocs(t *testing.T) {
	for _, s := range benchSpecs {
		Generate(s) // warm the pooled generator
		seed := int64(0)
		got := testing.AllocsPerRun(50, func() {
			seed++
			s.Seed = seed
			Generate(s)
		})
		if limit := maxGenerateAllocs(s); got > limit {
			t.Errorf("%s: Generate allocates %.1f objects per call, want <= %.0f", s.Kind, got, limit)
		}
		t.Logf("%s: %.1f allocations per call", s.Kind, got)
	}
}
