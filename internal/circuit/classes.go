package circuit

import "repro/internal/weyl"

// Classes is the class list of a circuit routed under mirror gates: a
// dense slot for every Weyl class a routing of it can price, so a cost
// table prices each class once and the mirror decisions, the trial
// bound and the depth pass read prices by slot instead of hashing
// coordinates or mirroring them again. It lists, for every 2Q op:
//
//   - the op's class, OpCoordinate(op): a decision's current gate, a
//     block;
//   - its mirror (paper Eq. 1): a decision's trial gate, an accepted
//     mirror, a block that absorbed one router SWAP;
//   - the mirror of that mirror: an accepted mirror whose block
//     absorbed one router SWAP;
//
// plus the identity and the SWAP, the classes of runs of router SWAPs
// alone. Each distinct class is mirrored at most twice per list, never
// per decision or per priced block.
//
// The routing analysis of a circuit builds its list (NewClasses) and
// never writes it into the circuit; a router stamps the routed circuit
// with it (Circuit.Classes) and each op it emits with the slot of the
// op's class (Op.Class). Slot 0 is reserved: an op whose Class is 0
// has no slot and is priced by its coordinate. A Classes is immutable
// once NewClasses returns.
type Classes struct {
	// Coords[s] is slot s's class; Coords[0] is unused.
	Coords []weyl.Coordinate
	// Mirror[s] is the slot of weyl.Mirror(Coords[s]), or 0 when the
	// list does not hold it (it holds it for every op class and every
	// op class's mirror).
	Mirror []int32
}

// The slots of the classes of runs of router SWAPs alone, reserved in
// every class list.
const (
	IdentitySlot int32 = 1
	SwapSlot     int32 = 2
)

// NewClasses returns c's class list and the slot of each op's class (0
// for an op that is not 2Q), leaving c as it is. Coordinates are keyed
// exactly, as the expressions the router and the depth pass evaluate
// produce them, so two classes a hair apart each get their own slot.
func NewClasses(c *Circuit) (*Classes, []int32) {
	// A circuit lists at most three classes per 2Q op, and blocks of a
	// mirror circuit are nearly all distinct classes: size for that.
	n := 3 + 3*c.Count2Q()
	cl := &Classes{
		Coords: append(make([]weyl.Coordinate, 0, n), weyl.Coordinate{}, weyl.IdentityCoord, weyl.SwapCoord),
		Mirror: append(make([]int32, 0, n), 0, 0, 0),
	}
	ops := make([]int32, len(c.Ops))
	slots := make(map[weyl.Coordinate]int32, n)
	slots[weyl.IdentityCoord], slots[weyl.SwapCoord] = IdentitySlot, SwapSlot
	slotOf := func(k weyl.Coordinate) int32 {
		s, ok := slots[k]
		if !ok {
			s = int32(len(cl.Coords))
			cl.Coords = append(cl.Coords, k)
			cl.Mirror = append(cl.Mirror, 0)
			slots[k] = s
		}
		return s
	}
	for i := range c.Ops {
		if !c.Ops[i].Is2Q() {
			continue
		}
		s := slotOf(OpCoordinate(c.Ops[i]))
		ops[i] = s
		// Link the class to its mirror and the mirror to its own.
		for k := 0; k < 2; k++ {
			if cl.Mirror[s] == 0 {
				m := slotOf(weyl.Mirror(cl.Coords[s]))
				cl.Mirror[s] = m
			}
			s = cl.Mirror[s]
		}
	}
	return cl, ops
}

// SlotCosts prices the classes of one class list by slot: Costs[s] is
// the price of Classes.Coords[s].
type SlotCosts struct {
	Classes *Classes
	Costs   []float64
}

// NewSlotCosts prices every slot of classes with cost.
func NewSlotCosts(classes *Classes, cost CoordCost) *SlotCosts {
	sc := &SlotCosts{Classes: classes, Costs: make([]float64, len(classes.Coords))}
	for s := 1; s < len(sc.Costs); s++ {
		sc.Costs[s] = cost(classes.Coords[s])
	}
	return sc
}
