package gnn_test

import (
	"fmt"

	"gnn"
)

// The basic GNN query: which facility minimises the total travel distance
// of three users?
func ExampleIndex_GroupNN() {
	facilities := []gnn.Point{{0, 0}, {10, 10}, {50, 50}, {11, 9}}
	ix, _ := gnn.BuildIndex(facilities, nil, gnn.IndexConfig{})

	users := []gnn.Point{{8, 8}, {12, 12}, {10, 11}}
	res, _ := ix.GroupNN(users)
	fmt.Printf("facility #%d, total distance %.2f\n", res[0].ID, res[0].Dist)
	// Output:
	// facility #1, total distance 6.66
}

// Streaming results in ascending distance without fixing k in advance.
func ExampleIndex_GroupNNIterator() {
	data := []gnn.Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	ix, _ := gnn.BuildIndex(data, nil, gnn.IndexConfig{})
	it, _ := ix.GroupNNIterator([]gnn.Point{{1, 1}, {2, 3}})
	for i := 0; i < 3; i++ {
		r, _ := it.Next()
		fmt.Printf("#%d at distance %.2f\n", r.ID, r.Dist)
	}
	// Output:
	// #1 at distance 2.24
	// #2 at distance 2.41
	// #3 at distance 3.83
}

// MAX-aggregate: minimise the farthest group member's distance instead of
// the total.
func ExampleWithAggregate() {
	data := []gnn.Point{{5, 0}, {0, 5}, {3, 3}}
	ix, _ := gnn.BuildIndex(data, nil, gnn.IndexConfig{})
	group := []gnn.Point{{0, 0}, {6, 6}}
	sum, _ := ix.GroupNN(group) // default SUM
	max, _ := ix.GroupNN(group, gnn.WithAggregate(gnn.MaxDist))
	fmt.Printf("sum-optimal #%d, max-optimal #%d\n", sum[0].ID, max[0].ID)
	// Output:
	// sum-optimal #2, max-optimal #2
}

// Sharded serving: the same Index over a Hilbert-partitioned set of
// independent packed R-trees. Results are identical to BuildIndex's;
// the shards prune each other through a shared best-distance bound and
// the reported cost is the exact sum of per-shard node accesses.
func ExampleBuildShardedIndex() {
	places := make([]gnn.Point, 0, 400)
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			places = append(places, gnn.Point{float64(x * 5), float64(y * 5)})
		}
	}
	sx, _ := gnn.BuildShardedIndex(places, nil, 4, gnn.IndexConfig{})

	users := []gnn.Point{{12, 14}, {18, 11}, {16, 19}}
	res, cost, _ := sx.GroupNNWithCost(users, gnn.WithK(2))
	fmt.Printf("%d shards over %d points\n", sx.Stats().Shards, sx.Len())
	for _, r := range res {
		fmt.Printf("place #%d at total distance %.2f\n", r.ID, r.Dist)
	}
	fmt.Printf("charged node accesses: %v\n", cost.NodeAccesses > 0)
	// Output:
	// 4 shards over 400 points
	// place #63 at total distance 12.29
	// place #62 at total distance 17.22
	// charged node accesses: true
}

// Weighted groups: a user who counts double pulls the answer closer.
func ExampleWithWeights() {
	data := []gnn.Point{{0, 0}, {8, 0}}
	ix, _ := gnn.BuildIndex(data, nil, gnn.IndexConfig{})
	group := []gnn.Point{{1, 0}, {9, 0}}
	even, _ := ix.GroupNN(group)
	left, _ := ix.GroupNN(group, gnn.WithWeights([]float64{10, 1}))
	fmt.Printf("even weights → #%d, left-heavy → #%d\n", even[0].ID, left[0].ID)
	// Output:
	// even weights → #1, left-heavy → #0
}
