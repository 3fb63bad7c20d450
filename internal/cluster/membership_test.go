package cluster

import (
	"context"
	"testing"
)

func TestMembershipStateMachine(t *testing.T) {
	m := newMembership(context.Background(), map[string]string{"n2": "http://x"}, 2, 4)
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
	if url, _ := m.idle(); url != "" {
		t.Fatalf("a peer reporting a queue of 7 offered as idle at %q", url)
	}
	m.beatOK("n2", 0)
	url, gone := m.idle()
	if url != "http://x" || gone.Err() != nil {
		t.Fatalf("an alive peer reporting an empty queue: idle at %q, gone %v", url, gone.Err())
	}

	// A second full death cycle fires takeover again: a death is reported
	// per death, not per peer lifetime.
	for i := 0; i < 4; i++ {
		miss()
	}
	if deaths != 2 {
		t.Fatalf("second death reported %d total, want 2", deaths)
	}
	if url, _ := m.idle(); url != "" {
		t.Fatalf("dead peer offered as idle at %q", url)
	}
	if m.beatMissed("ghost") || m.beatOK("ghost", 0) {
		t.Fatal("an untracked peer died or came back")
	}
	// A view that drops the peer ends whatever was offloaded to it.
	m.sync(map[string]string{})
	if gone.Err() == nil {
		t.Fatal("a peer dropped from the view is not gone")
	}
}
