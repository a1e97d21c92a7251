package data

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestShardTailPartition property-tests the elastic re-partition view: for
// any (perm, from, n) the n tail shards are pairwise disjoint, their union is
// exactly perm[from:], shard sizes differ by at most one, and a zero cursor
// degenerates to Shard.
func TestShardTailPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		size := rng.Intn(40)
		perm := rng.Perm(size)
		n := 1 + rng.Intn(5)
		from := rng.Intn(size + 1)

		seen := map[int]bool{}
		total := 0
		min, max := size+1, -1
		for i := 0; i < n; i++ {
			sh := ShardTail(perm, from, i, n)
			if len(sh) < min {
				min = len(sh)
			}
			if len(sh) > max {
				max = len(sh)
			}
			total += len(sh)
			for _, v := range sh {
				if seen[v] {
					t.Fatalf("size=%d n=%d from=%d: element %d in two shards", size, n, from, v)
				}
				seen[v] = true
			}
		}
		if total != size-from {
			t.Fatalf("size=%d n=%d from=%d: shards cover %d elements, want %d", size, n, from, total, size-from)
		}
		for _, v := range perm[from:] {
			if !seen[v] {
				t.Fatalf("size=%d n=%d from=%d: element %d in no shard", size, n, from, v)
			}
		}
		if max-min > 1 {
			t.Fatalf("size=%d n=%d from=%d: shard sizes spread %d..%d", size, n, from, min, max)
		}
		if from == 0 {
			for i := 0; i < n; i++ {
				a, b := Shard(perm, i, n), ShardTail(perm, 0, i, n)
				if len(a) != len(b) {
					t.Fatalf("ShardTail(perm,0,%d,%d) length %d, Shard gives %d", i, n, len(b), len(a))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("ShardTail(perm,0,%d,%d)[%d]=%d, Shard gives %d", i, n, j, b[j], a[j])
					}
				}
			}
		}
	}
}

// TestShardTailMatchesClusterRouting replays the cluster's routing rule
// through a membership change: sample g routes to slot g mod R with the
// global cursor counting across the change, so the post-change stream each
// surviving slot sees is exactly ShardTail(perm, change, slot, R'). The
// piecewise schedule — Shard-prefix before the change, ShardTail after —
// stays a disjoint, covering, stable partition of the epoch.
func TestShardTailMatchesClusterRouting(t *testing.T) {
	const size, rAfter, change = 37, 2, 17
	perm := rand.New(rand.NewSource(2)).Perm(size)

	// Ground truth: simulate the cluster's cursor.
	routed := make([][]int, rAfter)
	for g := change; g < size; g++ {
		slot := g % rAfter
		routed[slot] = append(routed[slot], perm[g])
	}
	for slot := 0; slot < rAfter; slot++ {
		sh := ShardTail(perm, change, slot, rAfter)
		if len(sh) != len(routed[slot]) {
			t.Fatalf("slot %d: ShardTail has %d elements, routing gives %d", slot, len(sh), len(routed[slot]))
		}
		for j := range sh {
			if sh[j] != routed[slot][j] {
				t.Fatalf("slot %d element %d: ShardTail %d, routing %d", slot, j, sh[j], routed[slot][j])
			}
		}
	}

	// The pre-change prefix is the plain Shard view truncated at the change
	// point; together the pieces cover every sample exactly once.
	seen := map[int]bool{}
	for g := 0; g < change; g++ {
		v := perm[g]
		if seen[v] {
			t.Fatalf("prefix routes %d twice", v)
		}
		seen[v] = true
	}
	for slot := 0; slot < rAfter; slot++ {
		for _, v := range ShardTail(perm, change, slot, rAfter) {
			if seen[v] {
				t.Fatalf("sample %d owned twice across the change", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != size {
		t.Fatalf("piecewise schedule covers %d samples, want %d", len(seen), size)
	}
}

// ShardTail returns the i-th of n strided views over the tail of an epoch
// order starting at global cursor from: the elements perm[g] with g ≥ from
// and g mod n == i. This is the shard a replica slot owns after an elastic
// membership change at cursor from — core.Cluster's global cursor keeps
// counting across the change, so sample g ≥ from routes to surviving slot
// g mod n. ShardTail(perm, 0, i, n) ≡ Shard(perm, i, n); the n tail shards of
// one (perm, from) are pairwise disjoint and their union is exactly
// perm[from:] (TestShardTailPartition). ShardTail never aliases perm's
// storage.
func ShardTail(perm []int, from, i, n int) []int {
	if n < 1 {
		panic(fmt.Sprintf("data: ShardTail with %d shards, want ≥ 1", n))
	}
	if i < 0 || i >= n {
		panic(fmt.Sprintf("data: ShardTail index %d out of range [0,%d)", i, n))
	}
	if from < 0 {
		panic(fmt.Sprintf("data: ShardTail cursor %d, want ≥ 0", from))
	}
	out := []int{}
	start := from + ((i-from)%n+n)%n // first g ≥ from with g mod n == i
	for j := start; j < len(perm); j += n {
		out = append(out, perm[j])
	}
	return out
}
