package inplace

import (
	"reflect"
	"slices"
	"testing"
)

// refTranspose is a minimal reference for the cache tests (the external
// test package has its own; this one avoids an import cycle).
func refTranspose(data []uint64, rows, cols int) []uint64 {
	out := make([]uint64, len(data))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = data[i*cols+j]
		}
	}
	return out
}

func fillRandomish(data []uint64) {
	for i := range data {
		data[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
}

// TestPlannerCacheEvictionAndStats fills the bounded planner cache past
// capacity with 2D and permutation entries and checks that (a) the two
// kinds share one FIFO, which drops the oldest entry of either kind,
// (b) an evicted entry is transparently rebuilt and still transposes
// correctly, and (c) the read-only hit/miss/eviction counters account
// for every step exactly.
func TestPlannerCacheEvictionAndStats(t *testing.T) {
	flushPlannerCache() // deterministic starting point
	s0 := PlannerCacheStats()
	o := Options{Workers: 1}
	expect := func(step string, hits, misses, evictions uint64) {
		t.Helper()
		s := PlannerCacheStats()
		if s.Hits-s0.Hits != hits || s.Misses-s0.Misses != misses || s.Evictions-s0.Evictions != evictions {
			t.Fatalf("%s: %+v (baseline %+v), want hits+%d misses+%d evictions+%d",
				step, s, s0, hits, misses, evictions)
		}
	}

	const aRows, aCols = 37, 29
	a := make([]uint64, aRows*aCols)
	fillRandomish(a)
	want := refTranspose(a, aRows, aCols)

	// First use: a miss that builds and caches the planner.
	if err := TransposeWith(a, aRows, aCols, o); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("first transpose incorrect at %d", i)
		}
	}
	expect("after first use", 0, 1, 0)

	// Transpose back with the swapped shape — a distinct cache key, so a
	// second miss — then repeat the original shape for a pure hit.
	if err := TransposeWith(a, aCols, aRows, o); err != nil {
		t.Fatal(err)
	}
	if err := TransposeWith(a, aRows, aCols, o); err != nil {
		t.Fatal(err)
	}
	expect("after 2D hit", 1, 2, 0)

	// Two permutation entries join the same cache behind the 2D ones: a
	// forward and an inverse permutation miss, the forward one then hits.
	dims, perm := []int{3, 4, 5}, []int{2, 0, 1}
	invDims, invPerm := permutedDims(dims, perm), []int{1, 2, 0}
	p := fillSeq(3 * 4 * 5)
	orig := append([]uint32(nil), p...)
	permute := func(dims, perm []int) {
		t.Helper()
		if err := PermuteAxes(p, dims, perm, o); err != nil {
			t.Fatal(err)
		}
	}
	permute(dims, perm)
	permute(invDims, invPerm)
	permute(dims, perm)
	if want := naivePermute(orig, dims, perm); !slices.Equal(p, want) {
		t.Fatal("cached permutation incorrect")
	}
	expect("after permutation hit", 2, 4, 0)

	// Flood the cache with distinct 2D shapes up to two past capacity:
	// the two 2D entries above are the oldest and must both be evicted,
	// with the eviction counter advancing once per drop beyond capacity,
	// while the younger permutation entries survive.
	for i := 0; i < plannerCacheCap-2; i++ {
		buf := make([]uint64, (i+3)*2)
		if err := TransposeWith(buf, i+3, 2, o); err != nil {
			t.Fatal(err)
		}
	}
	expect("after flood", 2, plannerCacheCap+2, 2)
	permute(invDims, invPerm)
	expect("permutation entry after flood", 3, plannerCacheCap+2, 2)

	// The evicted entry rebuilds transparently and still transposes
	// correctly (the data buffer currently holds the transposed array, so
	// transpose back and compare with the original). Its insertion
	// evicts the oldest entry, the forward permutation.
	fillRandomish(a)
	want = refTranspose(a, aRows, aCols)
	if err := TransposeWith(a, aRows, aCols, o); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("rebuilt-after-eviction transpose incorrect at %d", i)
		}
	}
	expect("post-eviction rebuild", 3, plannerCacheCap+3, 3)

	// The evicted permutation rebuilds too, evicting the inverse one.
	permute(dims, perm)
	if want := naivePermute(orig, dims, perm); !slices.Equal(p, want) {
		t.Fatal("rebuilt-after-eviction permutation incorrect")
	}
	expect("permutation rebuild", 3, plannerCacheCap+4, 4)

	// A freshly inserted shape still hits.
	if err := TransposeWith(a, aRows, aCols, o); err != nil {
		t.Fatal(err)
	}
	expect("final", 4, plannerCacheCap+4, 4)
}

// TestPlannerCacheHashCollisionMisses plants a planner for other dims
// and perm under a permutation's key, as a hash collision would: the
// lookup must miss, build a correct planner and give it the slot.
func TestPlannerCacheHashCollisionMisses(t *testing.T) {
	flushPlannerCache()
	defer flushPlannerCache()
	o := Options{Workers: 1}
	dims, perm := []int{6, 4}, []int{1, 0}
	other, err := NewPermutePlanner[uint64]([]int{4, 6}, []int{1, 0}, o)
	if err != nil {
		t.Fatal(err)
	}
	key := plannerKey{perm: permHash(dims, perm), opts: o, typ: reflect.TypeFor[*PermutePlanner[uint64]]()}
	plannerCache.mu.Lock()
	plannerCache.m = map[plannerKey]any{key: other}
	plannerCache.order = []plannerKey{key}
	plannerCache.mu.Unlock()

	s0 := PlannerCacheStats()
	data := make([]uint64, 24)
	fillRandomish(data)
	want := refTranspose(data, 6, 4)
	if err := PermuteAxes(data, dims, perm, o); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("colliding key served a wrong plan: mismatch at %d", i)
		}
	}
	if s := PlannerCacheStats(); s.Misses-s0.Misses != 1 || s.Hits != s0.Hits {
		t.Fatalf("colliding lookup: %+v (baseline %+v), want one miss and no hit", s, s0)
	}
	// The fresh planner took the slot: the same request now hits.
	if err := PermuteAxes(data, dims, perm, o); err != nil {
		t.Fatal(err)
	}
	if s := PlannerCacheStats(); s.Hits-s0.Hits != 1 || len(plannerCache.order) != 1 {
		t.Fatalf("after the collision: %+v, %d entries; want one hit and one entry", s, len(plannerCache.order))
	}
}

// TestPlannerCacheFlushOnWisdomChange pins the invariant that makes
// wisdom safe: mutating the wisdom table drops cached planners, 2D and
// permutation alike, so a stale pre-wisdom plan can never serve a
// post-wisdom call.
func TestPlannerCacheFlushOnWisdomChange(t *testing.T) {
	flushPlannerCache()
	defer ClearWisdom()
	ClearWisdom()
	o := Options{Workers: 1}

	data := make([]uint64, 48*64)
	dims, perm := []int{4, 8, 6}, []int{0, 2, 1}
	p := make([]uint64, 4*8*6)
	run := func() {
		t.Helper()
		if err := TransposeWith(data, 48, 64, o); err != nil {
			t.Fatal(err)
		}
		if err := PermuteAxes(p, dims, perm, o); err != nil {
			t.Fatal(err)
		}
	}
	run()
	s0 := PlannerCacheStats()
	run()
	if s := PlannerCacheStats(); s.Hits-s0.Hits != 2 || s.Misses != s0.Misses {
		t.Fatalf("warm calls: %+v (baseline %+v), want two hits", s, s0)
	}
	if _, err := Tune[uint64](48, 64, TuneConfig{Workers: 1, Fast: true}); err != nil {
		t.Fatal(err)
	}
	// The same calls miss again: the cache was flushed by the wisdom
	// update and the rebuilt planners reflect the tuned decision.
	s0 = PlannerCacheStats()
	run()
	if s := PlannerCacheStats(); s.Misses-s0.Misses != 2 || s.Hits != s0.Hits {
		t.Errorf("after a wisdom mutation: %+v (baseline %+v), want two misses", s, s0)
	}
}
