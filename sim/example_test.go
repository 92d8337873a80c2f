package sim_test

import (
	"fmt"
	"time"

	"spacecdn/sim"
)

// Place an object four times per orbital plane and resolve it for a
// subscriber in Maputo (README, "Using it as a library").
func Example() {
	env, _ := sim.NewEnvironment()
	sys, _ := sim.DeploySpaceCDN(env, sim.DefaultSpaceCDNConfig())
	obj := sim.Object{ID: "news", Bytes: 2 << 20}
	sim.Apply(sys, sim.PerPlaneSpacing{ReplicasPerPlane: 4}, obj)

	city, _ := sim.CityByName("Maputo, MZ")
	res, _ := sys.Resolve(city.Loc, "MZ", obj, env.Snapshot(0), sim.NewRand(1))
	fmt.Println(res.Source, res.RTT.Round(time.Microsecond)) // overhead/isl/ground and the client RTT
	// Output: isl 58.06ms
}

// Ground-segment expansion studies compose through options: a Nairobi PoP
// that Kenya is assigned to.
func ExampleNewAccessModel() {
	env, _ := sim.NewEnvironment()
	g := sim.NewGroundCatalog(sim.WithPoP("nbo", "Nairobi, KE"), sim.WithAssignment("KE", "nbo"))
	access := sim.NewAccessModel(env.Constellation, g)

	city, _ := sim.CityByName("Nairobi, KE")
	path, _ := access.ResolvePath(city.Loc, "KE", env.Snapshot(0))
	fmt.Println(path.PoP.Name)
	// Output: nbo
}
