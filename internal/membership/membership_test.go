package membership

import (
	"encoding/json"
	"strings"
	"testing"
)

func commitBootstrap(t *testing.T, c *Coordinator, size int) View {
	t.Helper()
	p := c.Bootstrap(size, KindSpawned)
	if p.View.Epoch != 1 {
		t.Fatalf("bootstrap epoch = %d, want 1", p.View.Epoch)
	}
	if got := p.View.Size(); got != size {
		t.Fatalf("bootstrap size = %d, want %d", got, size)
	}
	return c.Commit(p)
}

// countKinds folds an event log into per-kind counts.
func countKinds(evs []Event) map[EventKind]int {
	m := make(map[EventKind]int)
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

func ids(ms []Member) []MemberID {
	out := make([]MemberID, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

func TestBootstrapAssignsDenseRanksAndKinds(t *testing.T) {
	c := NewCoordinator()
	v := commitBootstrap(t, c, 4)
	if v.Members[0].Kind != KindCoordinator {
		t.Fatalf("rank 0 kind = %q, want coordinator", v.Members[0].Kind)
	}
	for r, m := range v.Members {
		if m.Rank != r {
			t.Fatalf("member %d holds rank %d at position %d", m.ID, m.Rank, r)
		}
		if r > 0 && m.Kind != KindSpawned {
			t.Fatalf("rank %d kind = %q, want spawned", r, m.Kind)
		}
	}
	if c.Epoch() != 1 {
		t.Fatalf("committed epoch = %d, want 1", c.Epoch())
	}
	seen := map[MemberID]bool{}
	for _, m := range v.Members {
		if m.ID == 0 || seen[m.ID] {
			t.Fatalf("member id %d at rank %d is zero or duplicated", m.ID, m.Rank)
		}
		seen[m.ID] = true
	}
}

func TestGrowFillsFreshSeats(t *testing.T) {
	c := NewCoordinator()
	commitBootstrap(t, c, 4)
	p, err := c.Plan(6, nil, KindSpawned)
	if err != nil {
		t.Fatal(err)
	}
	if p.View.Epoch != 2 {
		t.Fatalf("grow epoch = %d, want 2", p.View.Epoch)
	}
	if p.View.Size() != 6 || len(p.Joined) != 2 || len(p.Retired) != 0 || len(p.Lost) != 0 {
		t.Fatalf("grow plan: size=%d joined=%d retired=%d lost=%d", p.View.Size(), len(p.Joined), len(p.Retired), len(p.Lost))
	}
	// Survivors keep their ranks on pure growth.
	for r := 0; r < 4; r++ {
		if p.View.Members[r].ID != MemberID(r+1) {
			t.Fatalf("rank %d now member %d, want %d", r, p.View.Members[r].ID, r+1)
		}
	}
	v := c.Commit(p)
	if v.Epoch != 2 || c.Epoch() != 2 {
		t.Fatalf("committed epoch = %d/%d, want 2", v.Epoch, c.Epoch())
	}
}

func TestShrinkRetiresHighestRanks(t *testing.T) {
	c := NewCoordinator()
	commitBootstrap(t, c, 6)
	p, err := c.Plan(3, nil, KindSpawned)
	if err != nil {
		t.Fatal(err)
	}
	if p.View.Size() != 3 || len(p.Joined) != 0 || len(p.Lost) != 0 {
		t.Fatalf("shrink plan: size=%d joined=%d lost=%d", p.View.Size(), len(p.Joined), len(p.Lost))
	}
	got := ids(p.Retired)
	if len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("retired = %v, want [4 5 6]", got)
	}
	c.Commit(p)
	if c.View().Size() != 3 {
		t.Fatalf("committed size = %d, want 3", c.View().Size())
	}
}

func TestLeaveThenPlanRetiresAndCompactsRanks(t *testing.T) {
	c := NewCoordinator()
	v := commitBootstrap(t, c, 4)
	if err := c.RequestLeave(v.Members[1].ID); err != nil {
		t.Fatal(err)
	}
	// Same target size: the leaver's seat is backfilled with a fresh member
	// and survivors above it compact down.
	p, err := c.Plan(4, nil, KindSpawned)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Retired) != 1 || p.Retired[0].ID != v.Members[1].ID {
		t.Fatalf("retired = %v, want [%d]", ids(p.Retired), v.Members[1].ID)
	}
	want := []MemberID{1, 3, 4, 5} // old ranks 2,3 shift down; seat 3 is fresh
	for r, id := range want {
		if p.View.Members[r].ID != id {
			t.Fatalf("rank %d member = %d, want %d (view %v)", r, p.View.Members[r].ID, id, ids(p.View.Members))
		}
	}
	if len(p.Joined) != 1 || p.Joined[0].ID != 5 {
		t.Fatalf("joined = %v, want [5]", ids(p.Joined))
	}
}

func TestCoordinatorCannotLeave(t *testing.T) {
	c := NewCoordinator()
	commitBootstrap(t, c, 2)
	if err := c.RequestLeave(1); err == nil {
		t.Fatal("coordinator leave accepted; want error")
	}
	if err := c.RequestLeave(99); err == nil {
		t.Fatal("unknown member leave accepted; want error")
	}
}

func TestPendingJoinersSeatBeforeFreshForks(t *testing.T) {
	c := NewCoordinator()
	commitBootstrap(t, c, 3)
	j1 := c.AddPending(KindJoined, "10.0.0.1:9")
	j2 := c.AddPending(KindJoined, "10.0.0.2:9")
	p, err := c.Plan(6, nil, KindSpawned)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Joined) != 3 {
		t.Fatalf("joined %d members, want 3", len(p.Joined))
	}
	if p.View.Members[3].ID != j1 || p.View.Members[4].ID != j2 {
		t.Fatalf("pending joiners not seated first: view %v", ids(p.View.Members))
	}
	if p.View.Members[5].Kind != KindSpawned {
		t.Fatalf("last seat kind = %q, want spawned", p.View.Members[5].Kind)
	}
	c.Commit(p)
	if n := len(c.PendingJoins()); n != 0 {
		t.Fatalf("%d pending joiners after commit, want 0", n)
	}
}

func TestDeadMemberIsImplicitLeave(t *testing.T) {
	c := NewCoordinator()
	v := commitBootstrap(t, c, 4)
	dead := v.Members[2].ID
	p, err := c.Plan(4, func(m Member) bool { return m.ID != dead }, KindSpawned)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Lost) != 1 || p.Lost[0].ID != dead {
		t.Fatalf("lost = %v, want [%d]", ids(p.Lost), dead)
	}
	if p.View.Size() != 4 || len(p.Joined) != 1 {
		t.Fatalf("backfill: size=%d joined=%d", p.View.Size(), len(p.Joined))
	}
	c.Commit(p)
	sum := countKinds(c.Events())
	if sum[EvImplicitLeave] != 1 || sum[EvJoin] != 5 {
		t.Fatalf("event summary %v: want 1 implicit-leave, 5 joins", sum)
	}
}

func TestFailedPlanBurnsEpoch(t *testing.T) {
	c := NewCoordinator()
	commitBootstrap(t, c, 2)
	p1, err := c.Plan(4, nil, KindSpawned)
	if err != nil {
		t.Fatal(err)
	}
	c.Fail(p1, "bootstrap timeout")
	if c.Epoch() != 1 {
		t.Fatalf("failed plan moved committed epoch to %d", c.Epoch())
	}
	p2, err := c.Plan(4, nil, KindSpawned)
	if err != nil {
		t.Fatal(err)
	}
	if p2.View.Epoch <= p1.View.Epoch {
		t.Fatalf("retry epoch %d not above failed epoch %d", p2.View.Epoch, p1.View.Epoch)
	}
	c.Commit(p2)
	if c.Epoch() != p2.View.Epoch {
		t.Fatalf("committed epoch = %d, want %d", c.Epoch(), p2.View.Epoch)
	}
	if sum := countKinds(c.Events()); sum[EvBootstrap]+sum[EvEpoch] != 2 { // bootstrap + one committed resize
		t.Fatalf("event summary %v: want 2 committed epochs", sum)
	}
}

func TestEventLogJSON(t *testing.T) {
	c := NewCoordinator()
	commitBootstrap(t, c, 2)
	p, _ := c.Plan(3, nil, KindSpawned)
	c.Commit(p)
	c.RecordRebalance(p.View.Epoch, "wc: 2->3 ranks, 1024 bytes moved")
	b, err := json.Marshal(c.Events())
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{`"kind":"bootstrap"`, `"kind":"epoch"`, `"kind":"rebalance"`, `1024 bytes moved"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("event JSON missing %s:\n%s", want, out)
		}
	}
}

func TestJoinTokens(t *testing.T) {
	secret, err := NewSecret()
	if err != nil {
		t.Fatal(err)
	}
	generic := Token(secret, 0)
	if id, err := VerifyToken(secret, generic); err != nil || id != 0 {
		t.Fatalf("generic token verify: id=%d err=%v", id, err)
	}
	rejoin := Token(secret, 7)
	if id, err := VerifyToken(secret, rejoin); err != nil || id != 7 {
		t.Fatalf("rejoin token verify: id=%d err=%v", id, err)
	}
	// A member-bound token is not a generic token and vice versa.
	if _, err := VerifyToken(secret, strings.Replace(rejoin, ".7.", ".8.", 1)); err == nil {
		t.Fatal("token with swapped member id verified; want rejection")
	}
	other, _ := NewSecret()
	if _, err := VerifyToken(other, generic); err == nil {
		t.Fatal("token verified under wrong secret")
	}
	for _, bad := range []string{"", "mimir1", "mimir1.x.y", "mimir0.0.aaaa", generic + "x"} {
		if _, err := VerifyToken(secret, bad); err == nil {
			t.Fatalf("malformed token %q verified", bad)
		}
	}
}

func TestPlanBeforeBootstrapErrors(t *testing.T) {
	c := NewCoordinator()
	if _, err := c.Plan(2, nil, KindSpawned); err == nil {
		t.Fatal("Plan before Bootstrap succeeded")
	}
	if _, err := c.Plan(0, nil, KindSpawned); err == nil {
		t.Fatal("Plan target 0 succeeded")
	}
}
