package circuit

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/gates"
)

// WriteQASM renders the circuit as an OpenQASM 2.0 program, each gate
// under its internal name. Only the names ParseQASM reads round-trip:
// the qelib gates plus iswap, siswap, ccx and cswap. Every other gate
// — a consolidated block or 1Q product ("block", a parameterless "u"),
// a mirror gate ("cx'"), cry, iswappow, iswap_rN, pswap, cns, can —
// is written under a name ParseQASM rejects with an error. So a file
// written from this repository's gates reads back either as the same
// unitaries or not at all.
func WriteQASM(c *Circuit) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	for _, op := range c.Ops {
		name := op.Gate.Name
		if len(op.Gate.Params) > 0 {
			ps := make([]string, len(op.Gate.Params))
			for i, p := range op.Gate.Params {
				ps[i] = strconv.FormatFloat(p, 'g', 17, 64)
			}
			name = fmt.Sprintf("%s(%s)", name, strings.Join(ps, ","))
		}
		qs := make([]string, len(op.Qubits))
		for i, q := range op.Qubits {
			qs[i] = fmt.Sprintf("q[%d]", q)
		}
		fmt.Fprintf(&b, "%s %s;\n", name, strings.Join(qs, ","))
	}
	return b.String()
}

// ParseQASM reads the OpenQASM 2.0 subset found in QASMBench/MQTBench
// files: one qreg, standard gates with exactly their number of literal
// or pi-expression parameters, iswap/siswap, ccx/cswap, and ignored
// creg/measure/barrier/include lines. Any other gate name is an error.
func ParseQASM(src string) (*Circuit, error) {
	// Strip comments.
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteString("\n")
	}
	stmts := strings.Split(clean.String(), ";")
	var c *Circuit
	regName := "q"
	for _, raw := range stmts {
		stmt := strings.TrimSpace(raw)
		if stmt == "" {
			continue
		}
		lower := strings.ToLower(stmt)
		switch {
		case strings.HasPrefix(lower, "openqasm"),
			strings.HasPrefix(lower, "include"),
			strings.HasPrefix(lower, "creg"),
			strings.HasPrefix(lower, "barrier"),
			strings.HasPrefix(lower, "measure"),
			strings.HasPrefix(lower, "reset"):
			continue
		case strings.HasPrefix(lower, "qreg"):
			name, size, err := parseReg(stmt)
			if err != nil {
				return nil, err
			}
			if c != nil {
				return nil, fmt.Errorf("qasm: multiple qreg declarations are not supported")
			}
			regName = name
			c = New("qasm", size)
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("qasm: gate before qreg declaration: %q", stmt)
		}
		if err := parseGateStmt(c, regName, stmt); err != nil {
			return nil, err
		}
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	return c, nil
}

func parseReg(stmt string) (string, int, error) {
	rest := strings.TrimSpace(stmt[len("qreg"):])
	open := strings.Index(rest, "[")
	close := strings.Index(rest, "]")
	if open < 0 || close < open {
		return "", 0, fmt.Errorf("qasm: malformed qreg: %q", stmt)
	}
	name := strings.TrimSpace(rest[:open])
	n, err := strconv.Atoi(strings.TrimSpace(rest[open+1 : close]))
	if err != nil || n <= 0 {
		return "", 0, fmt.Errorf("qasm: bad register size in %q", stmt)
	}
	return name, n, nil
}

func parseGateStmt(c *Circuit, reg, stmt string) error {
	name := stmt
	var params []float64
	if open := strings.Index(stmt, "("); open >= 0 {
		close := strings.Index(stmt, ")")
		if close < open {
			return fmt.Errorf("qasm: malformed parameters in %q", stmt)
		}
		name = strings.TrimSpace(stmt[:open])
		for _, p := range strings.Split(stmt[open+1:close], ",") {
			v, err := evalExpr(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("qasm: %v in %q", err, stmt)
			}
			params = append(params, v)
		}
		stmt = name + " " + strings.TrimSpace(stmt[close+1:])
	}
	fields := strings.Fields(stmt)
	if len(fields) < 2 {
		return fmt.Errorf("qasm: malformed gate statement: %q", stmt)
	}
	name = strings.ToLower(fields[0])
	var qubits []int
	for _, arg := range strings.Split(strings.Join(fields[1:], ""), ",") {
		q, err := parseQubitRef(reg, arg)
		if err != nil {
			return err
		}
		qubits = append(qubits, q)
	}
	g, err := lookupGate(name, params)
	if err != nil {
		return err
	}
	if want := qasmParams[name]; len(params) != want {
		return fmt.Errorf("qasm: %s takes %d parameters, got %d in %q", name, want, len(params), stmt)
	}
	// The parser reads untrusted files: operands Append would panic on
	// are an error here, not a crash.
	op := Op{Gate: g, Qubits: qubits}
	if err := c.checkOp(op); err != nil {
		return fmt.Errorf("qasm: %v in %q", err, stmt)
	}
	c.Ops = append(c.Ops, op)
	return nil
}

func parseQubitRef(reg, arg string) (int, error) {
	arg = strings.TrimSpace(arg)
	if !strings.HasPrefix(arg, reg+"[") || !strings.HasSuffix(arg, "]") {
		return 0, fmt.Errorf("qasm: bad qubit reference %q (register %q)", arg, reg)
	}
	q, err := strconv.Atoi(arg[len(reg)+1 : len(arg)-1])
	if err != nil {
		return 0, fmt.Errorf("qasm: bad qubit index in %q", arg)
	}
	return q, nil
}

// qasmParams is the parameter count of each gate lookupGate reads that
// takes any; a statement must give exactly that many.
var qasmParams = map[string]int{
	"rx": 1, "ry": 1, "rz": 1, "p": 1, "u1": 1, "u2": 2, "u3": 3, "u": 3,
	"cp": 1, "cu1": 1, "crz": 1, "rxx": 1, "rzz": 1,
}

func lookupGate(name string, params []float64) (gates.Gate, error) {
	p := func(i int) float64 {
		if i < len(params) {
			return params[i]
		}
		return 0
	}
	switch name {
	case "id":
		return gates.I(), nil
	case "x":
		return gates.X(), nil
	case "y":
		return gates.Y(), nil
	case "z":
		return gates.Z(), nil
	case "h":
		return gates.H(), nil
	case "s":
		return gates.S(), nil
	case "sdg":
		return gates.Sdg(), nil
	case "t":
		return gates.T(), nil
	case "tdg":
		return gates.Tdg(), nil
	case "sx":
		return gates.SX(), nil
	case "rx":
		return gates.RX(p(0)), nil
	case "ry":
		return gates.RY(p(0)), nil
	case "rz":
		return gates.RZ(p(0)), nil
	case "p", "u1":
		return gates.P(p(0)), nil
	case "u3", "u":
		return gates.U3(p(0), p(1), p(2)), nil
	case "u2":
		return gates.U3(math.Pi/2, p(0), p(1)), nil
	case "cx", "cnot":
		return gates.CX(), nil
	case "cz":
		return gates.CZ(), nil
	case "swap":
		return gates.SWAP(), nil
	case "iswap":
		return gates.ISwap(), nil
	case "siswap":
		return gates.SqrtISwap(), nil
	case "cp", "cu1":
		return gates.CPhase(p(0)), nil
	case "crz":
		return gates.CRZ(p(0)), nil
	case "rxx":
		return gates.RXX(p(0)), nil
	case "rzz":
		return gates.RZZ(p(0)), nil
	case "ccx", "toffoli":
		return Toffoli(), nil
	case "cswap", "fredkin":
		return Fredkin(), nil
	}
	return gates.Gate{}, fmt.Errorf("qasm: unsupported gate %q", name)
}

// evalExpr evaluates the arithmetic subset appearing in QASM gate
// parameters: numbers, pi, unary minus, * and / with left-to-right
// associativity, and a single level of parentheses is NOT supported
// (QASMBench files do not need it).
func evalExpr(s string) (float64, error) {
	s = strings.ReplaceAll(strings.ToLower(s), " ", "")
	if s == "" {
		return 0, fmt.Errorf("empty parameter")
	}
	neg := false
	if s[0] == '-' {
		neg = true
		s = s[1:]
	} else if s[0] == '+' {
		s = s[1:]
	}
	// Split on * and / while remembering operators.
	var tokens []string
	var ops []byte
	cur := strings.Builder{}
	for i := 0; i < len(s); i++ {
		if s[i] == '*' || s[i] == '/' {
			tokens = append(tokens, cur.String())
			cur.Reset()
			ops = append(ops, s[i])
			continue
		}
		cur.WriteByte(s[i])
	}
	tokens = append(tokens, cur.String())
	val, err := evalAtom(tokens[0])
	if err != nil {
		return 0, err
	}
	for i, op := range ops {
		rhs, err := evalAtom(tokens[i+1])
		if err != nil {
			return 0, err
		}
		if op == '*' {
			val *= rhs
		} else {
			if rhs == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			val /= rhs
		}
	}
	if neg {
		val = -val
	}
	return val, nil
}

func evalAtom(s string) (float64, error) {
	if s == "pi" {
		return math.Pi, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad numeric literal %q", s)
	}
	return v, nil
}
