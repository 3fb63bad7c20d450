package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomMembershipWalk applies n random join/death events to a starting
// view and returns every view along the walk (including the start). The
// walk never drops below two members so rings stay non-trivial.
func randomMembershipWalk(rng *rand.Rand, start *view, n int) []*view {
	views := []*view{start}
	cur := start
	for i := 0; i < n; i++ {
		ids := cur.ids()
		if len(ids) > 2 && rng.Intn(2) == 0 {
			cur = cur.without(ids[rng.Intn(len(ids))])
		} else {
			id := fmt.Sprintf("walk-%d", i)
			cur = cur.with(id, "http://"+id+":9101")
		}
		views = append(views, cur)
	}
	return views
}

// TestViewEpochsAreMonotonic: every join and death mints epoch+1, so a
// walk of k events ends at epoch start+k and each step supersedes the
// previous view.
func TestViewEpochsAreMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	start := newView(3, map[string]string{"n1": "http://n1:9101", "n2": "http://n2:9101"})
	views := randomMembershipWalk(rng, start, 40)
	for i := 1; i < len(views); i++ {
		if views[i].epoch != views[i-1].epoch+1 {
			t.Fatalf("step %d: epoch %d after %d", i, views[i].epoch, views[i-1].epoch)
		}
		if !views[i].supersedes(views[i-1]) {
			t.Fatalf("step %d: newer view does not supersede older", i)
		}
		if views[i-1].supersedes(views[i]) {
			t.Fatalf("step %d: older view supersedes newer", i)
		}
	}
}

// TestViewSupersedesBreaksEqualEpochTies: two divergent views minted at
// the same epoch must order deterministically and asymmetrically, and a
// view never supersedes itself — otherwise concurrent join/death
// proposals would flap forever.
func TestViewSupersedesBreaksEqualEpochTies(t *testing.T) {
	base := newView(5, map[string]string{
		"n1": "http://n1:9101", "n2": "http://n2:9101", "n3": "http://n3:9101",
	})
	joined := base.with("n4", "http://n4:9101")
	shrunk := base.without("n3")
	if joined.epoch != shrunk.epoch {
		t.Fatalf("divergent epochs %d vs %d", joined.epoch, shrunk.epoch)
	}
	a, b := joined.supersedes(shrunk), shrunk.supersedes(joined)
	if a == b {
		t.Fatalf("tie not broken: supersedes %v both ways", a)
	}
	if base.supersedes(base) || joined.supersedes(joined) {
		t.Fatal("view supersedes itself")
	}
}

// TestRingExactlyOneOwnerPerFingerprint: after any sequence of joins
// and deaths, every fingerprint has exactly one owner, the owner is a
// current member, and ownership is a pure function of the view (two
// rings built from the same member set agree everywhere).
func TestRingExactlyOneOwnerPerFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	start := newView(0, map[string]string{
		"n1": "http://n1:9101", "n2": "http://n2:9101", "n3": "http://n3:9101",
	})
	for _, v := range randomMembershipWalk(rng, start, 30) {
		ids := v.ids()
		members := map[string]bool{}
		for _, id := range ids {
			members[id] = true
		}
		r, r2 := newRing(ids), newRing(ids)
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("fp-%d", i)
			owner := r.owner(key, nil)
			if !members[owner] {
				t.Fatalf("epoch %d: key %q owned by non-member %q (members %v)",
					v.epoch, key, owner, ids)
			}
			if o2 := r2.owner(key, nil); o2 != owner {
				t.Fatalf("epoch %d: key %q owner differs between identical rings: %q vs %q",
					v.epoch, key, owner, o2)
			}
		}
	}
}

// TestRingVnodeDistributionNearUniform: with 256 vnodes per member, each
// node's share of sampled fingerprints stays within 20% of uniform for
// the cluster sizes the smoke tests run (2..6 nodes).
func TestRingVnodeDistributionNearUniform(t *testing.T) {
	const samples = 20000
	for size := 2; size <= 6; size++ {
		ids := make([]string, size)
		for i := range ids {
			ids[i] = fmt.Sprintf("node-%d", i+1)
		}
		r := newRing(ids)
		counts := map[string]int{}
		for i := 0; i < samples; i++ {
			counts[r.owner(fmt.Sprintf("fp-%d", i), nil)]++
		}
		want := float64(samples) / float64(size)
		for _, id := range ids {
			dev := (float64(counts[id]) - want) / want
			if dev < -0.20 || dev > 0.20 {
				t.Errorf("size %d: %s owns %d of %d (%.1f%% off uniform)",
					size, id, counts[id], samples, dev*100)
			}
		}
	}
}

// TestSuccessorsDeterministicAndDerivableByAnyMember: the follower set
// is a pure function of the member list, every member computes the same
// followers for any node, and a dead node's followers are derivable
// from the post-death ring (the takeover protocol depends on this).
func TestSuccessorsDeterministicAndDerivableByAnyMember(t *testing.T) {
	ids := []string{"n1", "n2", "n3", "n4"}
	r := newRing(ids)
	for _, id := range ids {
		succ := r.successors(id, replicationFactor)
		if len(succ) != replicationFactor {
			t.Fatalf("successors(%s) = %v, want %d followers", id, succ, replicationFactor)
		}
		if succ[0] == id || succ[1] == id || succ[0] == succ[1] {
			t.Fatalf("successors(%s) = %v not distinct from self", id, succ)
		}
		// Followers of a dead node are derivable from the survivors' ring.
		after := newRing([]string{"n1", "n2", "n3", "n4"})
		if got := after.successors(id, replicationFactor); fmt.Sprint(got) != fmt.Sprint(succ) {
			t.Fatalf("successors(%s) differ across identical rings: %v vs %v", id, got, succ)
		}
	}
	// A two-node ring has only one possible follower.
	two := newRing([]string{"a", "b"})
	if got := two.successors("a", replicationFactor); len(got) != 1 || got[0] != "b" {
		t.Fatalf("two-node successors = %v, want [b]", got)
	}
	// Non-members (a rejoining node not yet admitted) still resolve to
	// the members that would hold their shipped journal.
	ghost := r.successors("zz-ghost", replicationFactor)
	if len(ghost) != replicationFactor || ghost[0] != "n1" {
		t.Fatalf("non-member successors = %v", ghost)
	}
}
