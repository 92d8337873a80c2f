// Geo-blocking (paper §1-§2): "Starlink subscribers experience unwarranted
// geo-blocking from CDNs when their connections are routed to PoPs deployed
// in countries where the requested content is geo-blocked." The example
// builds a licensed catalog, then shows the same subscriber being served
// terrestrially and spuriously blocked over the LSN — and that none of the
// standard request-routing techniques (anycast, DNS redirection, ECS,
// GeoIP) can fix it, because every signal points at the PoP.
package main

import (
	"fmt"
	"log"

	"spacecdn/internal/cdn"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/stats"
)

func main() {
	cat, err := content.GenerateCatalog(content.DefaultCatalogConfig())
	if err != nil {
		log.Fatal(err)
	}
	db := cdn.GenerateNationalLicenses(cat, 0.25, 1)
	fmt.Printf("catalog: %d objects, %d under national licenses\n", cat.Len(), db.Len())

	ground := groundseg.NewCatalog()
	client, _ := geo.CityByName("Maputo, MZ")
	pop, _ := ground.AssignPoP("MZ")
	fmt.Printf("subscriber in %s; Starlink PoP in %s (%s)\n\n", client.Name, pop.City, pop.Country)

	// Find a Mozambique-licensed object.
	var mzOnly content.Object
	for i := 0; i < cat.Len(); i++ {
		o := cat.ByRank(geo.RegionAfrica, i)
		l := db.Lookup(o.ID)
		if !l.Unrestricted() && l.Allows("MZ") {
			mzOnly = o
			break
		}
	}
	if mzOnly.ID == "" {
		log.Fatal("no MZ-licensed object in the catalog")
	}
	fmt.Printf("object %s is licensed for Mozambique only\n", mzOnly.ID)

	terr := cdn.CheckAccess(db, mzOnly.ID, "MZ", "MZ")
	sl := cdn.CheckAccess(db, mzOnly.ID, pop.Country, "MZ")
	fmt.Printf("  terrestrial request: allowed=%v\n", terr.Allowed)
	fmt.Printf("  starlink request:    allowed=%v spurious=%v (geolocated to %s)\n\n",
		sl.Allowed, sl.Spurious, sl.GeolocatedISO)

	// No mapping technique rescues the subscriber: every signal the CDN can
	// see points at the PoP.
	network, err := cdn.New(cdn.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	vTerr := cdn.TerrestrialVantage(client.Loc)
	vLSN := cdn.LSNVantage(client.Loc, pop.Loc)
	fmt.Println("request routing per technique (selected edge, mapping error):")
	for _, m := range []cdn.RoutingMethod{
		cdn.MethodAnycast, cdn.MethodDNSResolver, cdn.MethodDNSECS, cdn.MethodGeoIP,
	} {
		et := network.SelectEdge(m, vTerr, nil)
		es := network.SelectEdge(m, vLSN, nil)
		fmt.Printf("  %-13s terrestrial -> %-10s (%5.0f km)   starlink -> %-10s (%5.0f km)\n",
			m, et.City.Name, network.MappingErrorKm(m, vTerr),
			es.City.Name, network.MappingErrorKm(m, vLSN))
	}

	// Aggregate spurious-block rate over a request stream.
	rng := stats.NewRand(2)
	var slStats cdn.GeoBlockStats
	for i := 0; i < 2000; i++ {
		obj := cat.Sample(geo.RegionAfrica, rng)
		d := cdn.CheckAccess(db, obj.ID, pop.Country, "MZ")
		slStats.Record(db, obj.ID, d, "MZ")
	}
	fmt.Printf("\nstarlink request stream from %s: %v\n", client.Name, slStats)
}
