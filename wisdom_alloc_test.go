// Race-detector instrumentation inserts its own allocations, so the
// exact-zero assertion only holds in uninstrumented builds.
//go:build !race

package inplace

import (
	"testing"

	"inplace/internal/tune"
)

// Plan construction consults wisdom on every cache miss, so the lookup
// must not allocate, hit or miss, for any kind of key.
func TestWisdomLookupZeroAlloc(t *testing.T) {
	ClearWisdom()
	defer ClearWisdom()
	keys := []tune.Key{
		wisdomKey(tune.Key{Kind: tune.KindTranspose, Rows: 64, Cols: 48, ElemSize: 8}, 1),
		wisdomKey(tune.Key{Kind: tune.KindPermute, Dims: "2x64x4", Perm: "0,2,1", ElemSize: 8}, 0),
		wisdomKey(tune.Key{Kind: tune.KindOOC, Rows: 64, Cols: 48, ElemSize: 8}, 1<<20),
		wisdomKey(tune.Key{Kind: tune.KindStore, Rows: 4096, Cols: 8, ElemSize: 4}, 0),
	}
	storeWisdom(keys[0], tune.Decision{Variant: "gather", Workers: 1})
	storeWisdom(keys[1], tune.Decision{Variant: "greedy", Workers: 1})
	allocs := testing.AllocsPerRun(10, func() {
		for _, k := range keys {
			if _, _, err := lookupWisdom(WisdomAuto, k); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("wisdom lookup allocates %v times per round, want 0", allocs)
	}
}
