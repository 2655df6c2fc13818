package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/wire"
)

// names generates the logical and target names of one namespace. The shapes
// follow grid catalogs: lfn://<space>/file-<n> maps to
// gsiftp://site0.example.org/<space>/file-<n>.
type names struct{ space string }

func (g names) lfn(i int) string { return fmt.Sprintf("lfn://%s/file-%09d", g.space, i) }

func (g names) pfn(i int) string {
	return fmt.Sprintf("gsiftp://site0.example.org/%s/file-%09d", g.space, i)
}

// table materialises the first n names of a namespace once, so the hot loop
// of a caller indexes a slice instead of formatting strings.
type table struct {
	lfn, pfn []string
	// absent are n names of the same shape that are never registered.
	absent []string
}

func newTable(space string, n int) *table {
	g, miss := names{space}, names{space + "-absent"}
	t := &table{lfn: make([]string, n), pfn: make([]string, n), absent: make([]string, n)}
	for i := 0; i < n; i++ {
		t.lfn[i], t.pfn[i], t.absent[i] = g.lfn(i), g.pfn(i), miss.lfn(i)
	}
	return t
}

func (t *table) mappings(lo, hi int) []wire.Mapping {
	out := make([]wire.Mapping, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, wire.Mapping{Logical: t.lfn[i], Target: t.pfn[i]})
	}
	return out
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s. math/rand's
// Zipf needs s > 1; the paper-era catalogs this models are flatter (s = 0.9),
// so the distribution is an explicit cumulative table searched by bisection.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// keyspace is what a read caller draws from: Zipf ranks mapped through a
// seeded permutation (so the hot keys differ per seed and are spread over the
// B-tree), and a fixed share of absent names.
type keyspace struct {
	tab  *table
	z    *zipf
	perm []int
}

const (
	zipfS       = 0.9
	absentShare = 0.05
)

func newKeyspace(tab *table, seed int64) *keyspace {
	n := len(tab.lfn)
	return &keyspace{tab: tab, z: newZipf(n, zipfS), perm: rand.New(rand.NewSource(seed)).Perm(n)}
}

// pick returns a name and the index of its mapping, or -1 for an absent name.
func (k *keyspace) pick(r *rand.Rand) (string, int) {
	if r.Float64() < absentShare {
		return k.tab.absent[r.Intn(len(k.tab.absent))], -1
	}
	i := k.perm[k.z.draw(r)]
	return k.tab.lfn[i], i
}
