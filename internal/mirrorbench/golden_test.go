package mirrorbench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
	"testing"
)

// generateGolden is the SHA-256 of every circuit goldenSpecs generates,
// written by hashMirror. It was recorded from the generator that
// reseeded math/rand and built a fresh matrix per gate, so any change
// to the stream, the gate alphabet, the op order, the wires or the
// survival bitstring moves it.
const generateGolden = "071190b48e454df7489fcf76b3e1e2e99123a39f74764ce698d9d89670ead265"

// goldenSpecs covers both kinds at 2-8 qubits, 1-6 layers and three
// seeds (a negative one included).
func goldenSpecs() []Spec {
	var specs []Spec
	for _, kind := range []Kind{RandomizedClifford, QuantumVolume} {
		for qubits := 2; qubits <= 8; qubits++ {
			for layers := 1; layers <= 6; layers++ {
				for _, seed := range []int64{1, 2, -9} {
					specs = append(specs, Spec{Kind: kind, Qubits: qubits, Layers: layers, Seed: seed})
				}
			}
		}
	}
	return specs
}

// hashMirror writes m into h with exact bits: the circuit's name and
// width, each op's gate name, qubit count, wires and matrix entries
// (real and imaginary float64 bits), then Expected.
func hashMirror(h hash.Hash, m *Mirror) {
	var buf [8]byte
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putStr := func(s string) {
		putInt(len(s))
		h.Write([]byte(s))
	}
	putStr(m.Circuit.Name)
	putInt(m.Circuit.NumQubits)
	putInt(len(m.Circuit.Ops))
	for _, op := range m.Circuit.Ops {
		putStr(op.Gate.Name)
		putInt(op.Gate.Qubits)
		putInt(len(op.Qubits))
		for _, q := range op.Qubits {
			putInt(q)
		}
		mat := op.Gate.Matrix()
		putInt(mat.Rows)
		putInt(mat.Cols)
		for _, v := range mat.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(real(v)))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(imag(v)))
			h.Write(buf[:])
		}
	}
	putInt(len(m.Expected))
	for _, b := range m.Expected {
		putInt(b)
	}
}

// TestGenerateGolden pins Generate's output bit for bit, and that every
// op's qubit slice is full (cap == len), so appending to one op's
// wires can never write into its neighbour's.
func TestGenerateGolden(t *testing.T) {
	h := sha256.New()
	for _, s := range goldenSpecs() {
		m := Generate(s)
		for i, op := range m.Circuit.Ops {
			if cap(op.Qubits) != len(op.Qubits) {
				t.Fatalf("%s: op %d qubits have cap %d, len %d", s.Name(), i, cap(op.Qubits), len(op.Qubits))
			}
		}
		hashMirror(h, m)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generateGolden {
		t.Fatalf("Generate output hash %s, want %s", got, generateGolden)
	}
}

func mirrorSum(m *Mirror) []byte {
	h := sha256.New()
	hashMirror(h, m)
	return h.Sum(nil)
}

// TestGenerateConcurrentCallers generates the golden specs from four
// goroutines at once, each spec on two of them (run under -race):
// every call reseeds a generator of its own, so each circuit hashes as
// a serial call's does.
func TestGenerateConcurrentCallers(t *testing.T) {
	specs := goldenSpecs()
	want := make([][]byte, len(specs))
	for i, s := range specs {
		want[i] = mirrorSum(Generate(s))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w % 2; i < len(specs); i += 2 {
				if !bytes.Equal(mirrorSum(Generate(specs[i])), want[i]) {
					t.Errorf("%s: concurrent call differs from a serial one", specs[i].Name())
				}
			}
		}(w)
	}
	wg.Wait()
}
