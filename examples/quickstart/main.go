// Quickstart: index a point set, run a group nearest neighbor query, and
// inspect the cost — the smallest end-to-end use of the gnn library.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gnn"
)

func main() {
	// A data set P: 10,000 random facilities in a 1,000 × 1,000 map.
	rng := rand.New(rand.NewSource(7))
	facilities := make([]gnn.Point, 10_000)
	for i := range facilities {
		facilities[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}

	// Bulk-load an R-tree index (50 entries/node, the paper's setup).
	ix, err := gnn.BuildIndex(facilities, nil, gnn.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// A query group Q: three user locations.
	users := []gnn.Point{{120, 700}, {180, 640}, {95, 660}}

	// The GNN: the facility minimising the SUM of distances to all users.
	res, err := ix.GroupNN(users, gnn.WithK(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("three best meeting facilities (total travel distance):")
	for i, r := range res {
		fmt.Printf("  %d. facility #%d at (%.1f, %.1f) — total distance %.1f\n",
			i+1, r.ID, r.Point[0], r.Point[1], r.Dist)
	}

	// The same query, counting simulated disk accesses like the paper.
	ix.ResetCost()
	if _, err := ix.GroupNN(users); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost of the k=1 query: %d node accesses over %d indexed points (structure: %s)\n",
		ix.Cost().NodeAccesses, ix.Len(), mustInvariants(ix))
}

// mustInvariants double-checks the index structure and returns a short
// status string for the demo output.
func mustInvariants(ix *gnn.Index) string {
	if err := ix.CheckInvariants(); err != nil {
		return "INVALID: " + err.Error()
	}
	return "ok"
}
