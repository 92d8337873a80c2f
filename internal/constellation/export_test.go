package constellation

import (
	"math"

	"spacecdn/internal/geo"
)

// GroundMemoSlots and GroundHome expose the ground-point memo's table size
// and a point's home slot to the package's external tests, whose fuzz
// target builds point sequences that collide in the table.
const GroundMemoSlots = groundMemoSlots

func GroundHome(p geo.Point) int {
	return groundHash(math.Float64bits(p.LatDeg), math.Float64bits(p.LonDeg))
}
