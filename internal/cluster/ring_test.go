package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnerDeterministicAcrossInsertionOrder(t *testing.T) {
	a := newRing([]string{"n1", "n2", "n3"})
	b := newRing([]string{"n3", "n1", "n2", "n1"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if a.owner(key, nil) != b.owner(key, nil) {
			t.Fatalf("key %q: owner depends on construction order", key)
		}
	}
}

func TestRingOwnerSpreadsKeys(t *testing.T) {
	r := newRing([]string{"n1", "n2", "n3"})
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.owner(fmt.Sprintf("fp-%d", i), nil)]++
	}
	for _, n := range []string{"n1", "n2", "n3"} {
		// With 64 vnodes per member the expected share is 1000±a few
		// percent; a node owning under a fifth means the hash is broken.
		if counts[n] < 600 {
			t.Fatalf("lopsided ring: %v", counts)
		}
	}
}

func TestRingOwnerDrainsDeadNodes(t *testing.T) {
	r := newRing([]string{"n1", "n2", "n3"})
	deadOwner := ""
	for i := 0; ; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if r.owner(key, nil) == "n2" {
			deadOwner = key
			break
		}
	}
	alive := func(id string) bool { return id != "n2" }
	got := r.owner(deadOwner, alive)
	if got == "n2" || got == "" {
		t.Fatalf("key owned by dead n2 routed to %q", got)
	}
	// The drained assignment must itself be stable.
	if r.owner(deadOwner, alive) != got {
		t.Fatal("drained ownership is not deterministic")
	}
	// All members dead: no owner, the caller serves locally.
	if got := r.owner(deadOwner, func(string) bool { return false }); got != "" {
		t.Fatalf("all-dead ring returned owner %q", got)
	}
}

func TestRingSuccessorIsStaticAndDistinct(t *testing.T) {
	r := newRing([]string{"n1", "n2", "n3"})
	seen := map[string]bool{}
	for _, n := range []string{"n1", "n2", "n3"} {
		s := r.successors(n, 1)
		if len(s) != 1 || s[0] == n {
			t.Fatalf("successors(%s, 1) = %q", n, s)
		}
		seen[s[0]] = true
	}
	// Sorted-member-order successors form one cycle: every node is
	// exactly one member's follower, so a death has exactly one taker.
	if len(seen) != 3 {
		t.Fatalf("successor map is not a permutation: %v", seen)
	}
	if got := newRing([]string{"solo"}).successors("solo", 1); len(got) != 0 {
		t.Fatalf("single-node successors = %q, want none", got)
	}
	// A non-member's followers are the members at or after its sorted
	// position: how the rejoin handshake finds a dead node's.
	if got := r.successors("n2a", 1); len(got) != 1 || got[0] != "n3" {
		t.Fatalf("non-member successors = %q, want [n3]", got)
	}
}
