package cluster

import "testing"

func TestMembershipStateMachine(t *testing.T) {
	m := newMembership(map[string]string{"n2": "http://x"}, 2, 4)
	deaths := 0
	miss := func() {
		if m.beatMissed("n2") {
			deaths++
		}
	}

	if !m.alive("n2") {
		t.Fatal("peers are born alive")
	}
	if !m.alive("n1") {
		t.Fatal("self (untracked) must always read alive")
	}

	miss()
	if !m.alive("n2") {
		t.Fatal("one miss must not drain a peer")
	}
	miss()
	if m.alive("n2") || m.state("n2") != StateSuspect {
		t.Fatalf("after suspectAfter misses: state=%s", m.state("n2"))
	}
	if deaths != 0 {
		t.Fatal("suspect reported a death")
	}
	miss()
	miss()
	if m.state("n2") != StateDead || deaths != 1 {
		t.Fatalf("after deadAfter misses: state=%s deaths=%d", m.state("n2"), deaths)
	}
	// Continued misses must not re-fire takeover.
	miss()
	miss()
	if deaths != 1 {
		t.Fatalf("death reported %d times for one death", deaths)
	}

	if back := m.beatOK("n2", 7); !back || !m.alive("n2") {
		t.Fatalf("rejoin: back=%v alive=%v", back, m.alive("n2"))
	}
	if m.beatOK("n2", 7) {
		t.Fatal("an alive peer answering again reported as back")
	}
	if d := m.queueDepthOf("n2"); d != 7 {
		t.Fatalf("queue depth %d, want 7", d)
	}

	// A second full death cycle fires takeover again: a death is reported
	// per death, not per peer lifetime.
	for i := 0; i < 4; i++ {
		miss()
	}
	if deaths != 2 {
		t.Fatalf("second death reported %d total, want 2", deaths)
	}
	if d := m.queueDepthOf("n2"); d != -1 {
		t.Fatalf("dead peer advertises queue depth %d", d)
	}
	if m.beatMissed("ghost") || m.beatOK("ghost", 0) {
		t.Fatal("an untracked peer died or came back")
	}
}
