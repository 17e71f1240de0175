package distrib

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// fillNonZero sets every settable field under v to a distinct non-zero
// value: numbers count up from *next, bools are true, structs are
// filled field by field and nil pointers get a filled pointee. A field
// of any other kind fails the test, so a new option type is noticed.
func fillNonZero(t *testing.T, path string, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillNonZero(t, path+"."+v.Type().Field(i).Name, f, next)
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fillNonZero(t, path, v.Elem(), next)
	default:
		t.Fatalf("%s: no non-zero fill for a %s field; teach fillNonZero and the wire form about it", path, v.Kind())
	}
}

// TestWireOptionsRoundTripEveryField guards the single wire form of
// transpile.Options: every exported field but RouteFn — nested
// LayoutOptions fields included — set to a non-zero value, with a
// root-3 basis, must come back unchanged through the
// encoder, gob and the decoder. A field the wire form drops fails here
// instead of silently reverting to its default on workers.
func TestWireOptionsRoundTripEveryField(t *testing.T) {
	var opts transpile.Options
	ov := reflect.ValueOf(&opts).Elem()
	next := 0
	for i := 0; i < ov.NumField(); i++ {
		switch name := ov.Type().Field(i).Name; name {
		case "RouteFn":
		case "Basis":
			opts.Basis = syntheticRoot3()
		default:
			fillNonZero(t, name, ov.Field(i), &next)
		}
	}
	// Level 0 is the gob zero value the presence flag exists for.
	never := mirage.AggressionNever
	opts.FixedAggression = &never

	w, err := optionsToWire(opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	var back wireOptions
	if err := decodeSpec(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.options()
	if err != nil {
		t.Fatal(err)
	}
	gv := reflect.ValueOf(got)
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		switch name {
		case "RouteFn":
		case "Basis":
			if !bytes.Equal(savedCoverage(t, got.Basis), savedCoverage(t, opts.Basis)) {
				t.Errorf("Basis: decoded %q differs from the encoded %q", got.Basis.Name, opts.Basis.Name)
			}
		default:
			if a, b := ov.Field(i).Interface(), gv.Field(i).Interface(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: sent %+v, decoded %+v", name, a, b)
			}
		}
	}
}

// TestWireOptionsRejectAggressionOutOfRange: a spec whose fixed
// aggression is not one of the four levels is an error, not a policy.
func TestWireOptionsRejectAggressionOutOfRange(t *testing.T) {
	w, err := optionsToWire(transpile.Options{Basis: syntheticRoot3()})
	if err != nil {
		t.Fatal(err)
	}
	w.HasFixedAggression = true
	for _, bad := range []mirage.Aggression{-1, 4} {
		w.FixedAggression = bad
		if _, err := w.options(); err == nil {
			t.Fatalf("fixed aggression %d decoded without error", bad)
		}
	}
}

// TestFixedAggressionOverTheWire: MIRAGE-Depth at one fixed aggression
// level — the never level is the gob zero value — through a trial
// grid on the cluster (Cluster.Options) and a batch job
// (Cluster.TranspileBatch) reports bit-identically to the local
// pipeline.
func TestFixedAggressionOverTheWire(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("fixed-a", 7, 22, 101),
		e2eCircuit("fixed-b", 8, 26, 102),
	}
	cl := startCluster(t, 2, 0, 0)
	mirrors := map[mirage.Aggression]int{}
	for _, level := range []mirage.Aggression{mirage.AggressionNever, mirage.AggressionAlways} {
		level := level
		opts := transpile.Options{
			Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
			FixedAggression: &level,
			Layout:          sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 13},
		}
		dopts, err := cl.Options(opts)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := cl.TranspileBatch(circuits, topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range circuits {
			want, err := transpile.Transpile(c, topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			mirrors[level] += want.MirrorsUsed
			got, err := transpile.Transpile(c, topo, dopts)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, "fixed-trials", want, got)
			reportsEqual(t, "fixed-batch", want, batch[i])
		}
	}
	// The fixture must tell the levels apart, or a dropped level
	// could pass unnoticed.
	if mirrors[mirage.AggressionNever] != 0 || mirrors[mirage.AggressionAlways] == 0 {
		t.Fatalf("mirrors used per level %v: want none at never and some at always", mirrors)
	}
}
