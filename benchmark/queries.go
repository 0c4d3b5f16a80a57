package main

import (
	"math/rand"

	"scanraw/internal/gen"
)

// mixClasses are the six query classes of warm_mix. Between them they walk
// every scan path the operator has: file-order full scans (agg, filter,
// groupby), the top-k bound (topk), the LIMIT frontier (limit) and the
// ordered sampled scan (ola).
var mixClasses = []string{"agg", "filter", "groupby", "topk", "limit", "ola"}

// variantsPerClass bounds the distinct statements per class, so the oracle
// computes each expected answer once and the loop still varies columns.
const variantsPerClass = 6

// maxValue is gen's default value bound: values are uniform in [0, 2^31).
const maxValue = int64(1) << 31

// threshold returns a cut near the given quantile of the uniform values. The
// seed moves it by at most 2% either way: enough that no two seeds filter
// identically, too little to make one seed's workload heavier than another's
// (the driver compares runs of different seeds).
func threshold(rng *rand.Rand, quantile float64) int64 {
	q := quantile * (0.98 + 0.04*rng.Float64())
	return int64(q * float64(maxValue))
}

// twoCols draws two distinct column ordinals.
func twoCols(rng *rand.Rand, ncols int) (int, int) {
	a := rng.Intn(ncols)
	b := rng.Intn(ncols - 1)
	if b >= a {
		b++
	}
	return a, b
}

// warmMixPool generates the distinct statements of warm_mix, class by class.
func warmMixPool(s gen.CSVSpec, seed int64) map[string][]*query {
	rng := rand.New(rand.NewSource(seed))
	pool := make(map[string][]*query, len(mixClasses))
	for _, class := range mixClasses {
		for v := 0; v < variantsPerClass; v++ {
			ca, cb := twoCols(rng, s.Cols)
			var q *query
			switch class {
			case "agg":
				q = sumQuery("agg", s, []int{ca, cb})
			case "filter":
				q = filterCountQuery(s, ca, cb, threshold(rng, 0.10))
			case "groupby":
				q = groupByQuery(s, ca)
			case "topk":
				q = topKQuery(s, ca, 10)
			case "limit":
				q = limitQuery(s, ca, cb, 100)
			case "ola":
				q = olaQuery(s, ca, 0.01, rng.Int63n(1<<30))
			}
			pool[class] = append(pool[class], q.prepare())
		}
	}
	return pool
}

// streamPool generates the distinct statements of stream_rows: roughly a
// quarter of the rows, four integer columns each.
func streamPool(s gen.CSVSpec, seed int64) []*query {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*query, variantsPerClass)
	for v := range pool {
		cb := 4 + rng.Intn(s.Cols-4)
		pool[v] = streamQuery(s, cb, threshold(rng, 0.25))
	}
	return pool
}

// drawer is one client's seeded walk over a pool: a uniform class, then a
// uniform variant. The daemon sees only the statements it yields.
type drawer struct {
	rng     *rand.Rand
	classes []string
	pool    map[string][]*query
}

func newDrawer(seed int64, client int, classes []string, pool map[string][]*query) *drawer {
	return &drawer{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), classes: classes, pool: pool}
}

func (d *drawer) next() *query {
	vs := d.pool[d.classes[d.rng.Intn(len(d.classes))]]
	return vs[d.rng.Intn(len(vs))]
}
