package mirrorbench

import (
	"errors"
	"fmt"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// ErrTooWide reports that a routed circuit touches more physical
// wires than circuit.MaxUnitaryQubits, so the dense-unitary check
// cannot run. Callers running an advisory pass (benchsuite -fig 12
// on a large device) may treat it as "unverified"; the CI gate runs
// on small topologies where it never fires.
var ErrTooWide = errors.New("mirrorbench: routed circuit too wide for unitary verification")

// Verify checks the whole-pipeline semantic invariant of a transpiled
// mirror circuit: its unitary, read through the final layout, must map
// the all-zeros input to the generator's expected survival bitstring.
//
// routed is the transpiler's output on physical wires; final is the
// logical-to-physical layout after routing (Report.FinalLayout);
// expected is Mirror.Expected. Every logical qubit starts in |0>, so
// the physical input state is |0...0> regardless of the initial
// layout, and logical qubit q ends on physical wire final.Phys(q).
//
// The check is independent of any reference implementation: a bug in
// layout selection, SWAP insertion, mirror-gate substitution, wire
// bookkeeping or block consolidation shows up as lost survival
// amplitude. Only the wires the circuit actually touches (plus the
// final homes of the logical qubits) enter the dense unitary, so
// small mirror circuits stay verifiable on devices far wider than
// circuit.MaxUnitaryQubits as long as routing stays local.
//
// Verify returns the survival fidelity |<expected|U|0...0>|^2 and a
// non-nil error when 1 - fidelity exceeds tol (or when the check
// cannot run at all).
func Verify(routed *circuit.Circuit, final *topology.Layout, expected []int, tol float64) (float64, error) {
	if routed == nil || final == nil {
		return 0, fmt.Errorf("mirrorbench: nil routed circuit or final layout")
	}
	if len(expected) > len(final.L2P) {
		return 0, fmt.Errorf("mirrorbench: %d expected bits but final layout maps %d logical qubits",
			len(expected), len(final.L2P))
	}

	// Collect the physical wires that matter: everything an op
	// touches, plus the final home of every logical qubit (a wire
	// expected to carry a 1 must be inspected even if — through some
	// bug — no gate ever reached it).
	used := make([]bool, routed.NumQubits)
	for _, op := range routed.Ops {
		for _, q := range op.Qubits {
			used[q] = true
		}
	}
	for q := range expected {
		p := final.Phys(q)
		if p < 0 || p >= routed.NumQubits {
			return 0, fmt.Errorf("mirrorbench: logical qubit %d maps to physical %d, outside [0, %d)",
				q, p, routed.NumQubits)
		}
		used[p] = true
	}
	compact := make([]int, routed.NumQubits) // physical -> compact index
	width := 0
	for p, u := range used {
		if u {
			compact[p] = width
			width++
		} else {
			compact[p] = -1
		}
	}
	if width > circuit.MaxUnitaryQubits {
		return 0, fmt.Errorf("%w: %d active wires (limit %d)", ErrTooWide, width, circuit.MaxUnitaryQubits)
	}
	if width == 0 {
		return 0, fmt.Errorf("mirrorbench: routed circuit has no ops and no logical qubits")
	}

	sub := circuit.New(routed.Name+"_verify", width)
	for _, op := range routed.Ops {
		qs := make([]int, len(op.Qubits))
		for i, q := range op.Qubits {
			qs[i] = compact[q]
		}
		sub.Add(op.Gate, qs...)
	}
	u, err := sub.Unitary()
	if err != nil {
		return 0, fmt.Errorf("mirrorbench: %w", err)
	}

	// Row index of the expected output state: qubit 0 is the most
	// significant bit of the state index (the circuit.Unitary
	// convention); unused-but-active wires stay |0>.
	row := 0
	for q, bit := range expected {
		if bit != 0 {
			row |= 1 << uint(width-1-compact[final.Phys(q)])
		}
	}
	amp := u.At(row, 0)
	fid := real(amp)*real(amp) + imag(amp)*imag(amp)
	if 1-fid > tol {
		return fid, fmt.Errorf("mirrorbench: %s violates the mirror identity: survival fidelity %.12f (want 1 within %g, |amp| = %.12f)",
			routed.Name, fid, tol, cmplx.Abs(amp))
	}
	return fid, nil
}
