package spacecdn

import "fmt"

// FailoverKind classifies degraded-mode reroutes, one per stage of the
// resolve pipeline.
type FailoverKind int

const (
	// FailoverUplink: the healthy overhead satellite is dead; the request
	// re-homed to the next surviving visible satellite.
	FailoverUplink FailoverKind = iota
	// FailoverReplica: the object's replica set intersects the dead mask;
	// the ISL search had to route past dead holders.
	FailoverReplica
	// FailoverPoP: the ground fallback served from a PoP other than the
	// client's healthy assignment.
	FailoverPoP

	numFailoverKinds // keep last: sizes the name table and label arrays
)

// failoverNames is the exhaustive name table; the [numFailoverKinds] bound
// makes a constant added without a name a compile error.
var failoverNames = [numFailoverKinds]string{
	FailoverUplink:  "uplink",
	FailoverReplica: "replica",
	FailoverPoP:     "pop",
}

func (k FailoverKind) String() string {
	if k >= 0 && int(k) < len(failoverNames) {
		return failoverNames[k]
	}
	return fmt.Sprintf("failover(%d)", int(k))
}

// FailoverKinds returns every failover kind, in declaration order.
func FailoverKinds() []FailoverKind {
	out := make([]FailoverKind, numFailoverKinds)
	for i := range out {
		out[i] = FailoverKind(i)
	}
	return out
}
