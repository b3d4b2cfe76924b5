package shardnet

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m-%d/cpu|m-%d/mem", i, (i*7+3)%n)
	}
	return out
}

// TestAssignDeterministicAndInRange: Assign is a pure function into
// [0, shards).
func TestAssignDeterministicAndInRange(t *testing.T) {
	for _, k := range keys(500) {
		for n := 1; n <= 9; n++ {
			got := Assign(k, n)
			if got < 0 || got >= n {
				t.Fatalf("Assign(%q, %d) = %d out of range", k, n, got)
			}
			if again := Assign(k, n); again != got {
				t.Fatalf("Assign(%q, %d) not deterministic: %d then %d", k, n, got, again)
			}
		}
	}
	if Assign("anything", 0) != 0 || Assign("anything", -3) != 0 {
		t.Error("shards < 1 must map to shard 0")
	}
}

// TestAssignBalance: with many keys the rendezvous partition is roughly
// even — no shard holds more than twice or less than half its fair share.
func TestAssignBalance(t *testing.T) {
	const n = 8
	ks := keys(8000)
	counts := make([]int, n)
	for _, k := range ks {
		counts[Assign(k, n)]++
	}
	fair := len(ks) / n
	for k, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("shard %d holds %d keys, fair share %d", k, c, fair)
		}
	}
}

// TestAssignMinimalMovement: growing from n to n+1 shards only moves keys
// that land on the NEW shard — no key ever migrates between two surviving
// shards — and the moved fraction is near 1/(n+1).
func TestAssignMinimalMovement(t *testing.T) {
	ks := keys(6000)
	for n := 1; n <= 7; n++ {
		moved := 0
		for _, k := range ks {
			oldS, newS := Assign(k, n), Assign(k, n+1)
			if oldS != newS {
				moved++
				if newS != n {
					t.Fatalf("grow %d→%d: key %q moved %d→%d, not to the new shard", n, n+1, k, oldS, newS)
				}
			}
		}
		frac := float64(moved) / float64(len(ks))
		want := 1.0 / float64(n+1)
		if frac < want/2 || frac > want*2 {
			t.Errorf("grow %d→%d moved %.1f%% of keys, expected ≈%.1f%%", n, n+1, 100*frac, 100*want)
		}
	}
}

// TestAssignPinnedAssignments freezes the rendezvous placement of a
// representative key set across every shard count 1–8. These values are
// load-bearing beyond balance: the networked shard fabric keys worker
// state by Assign, so a hash change that silently re-homes pairs would
// orphan every persisted shard directory. Any edit
// to weight/Assign that alters placement must fail here loudly and be
// shipped with a checkpoint-migration story, not slipped in.
func TestAssignPinnedAssignments(t *testing.T) {
	pinned := []struct {
		key  string
		want [8]int // want[n-1] = Assign(key, n)
	}{
		{"m-0/cpu|m-0/mem", [8]int{0, 1, 2, 2, 2, 2, 2, 7}},
		{"m-0/cpu|m-1/cpu", [8]int{0, 0, 0, 0, 0, 0, 0, 0}},
		{"m-0/mem|m-2/net", [8]int{0, 0, 0, 0, 0, 0, 6, 6}},
		{"m-1/disk|m-3/cpu", [8]int{0, 0, 0, 3, 3, 3, 3, 3}},
		{"m-2/cpu|m-2/mem", [8]int{0, 1, 1, 1, 1, 1, 1, 1}},
		{"m-3/net|m-4/net", [8]int{0, 1, 1, 1, 1, 1, 1, 1}},
		{"m-4/cpu|m-5/mem", [8]int{0, 0, 0, 0, 4, 4, 4, 4}},
		{"m-5/disk|m-6/disk", [8]int{0, 0, 2, 3, 4, 4, 4, 4}},
		{"m-6/cpu|m-7/net", [8]int{0, 0, 0, 3, 3, 3, 3, 3}},
		{"m-7/mem|m-7/net", [8]int{0, 0, 0, 0, 0, 0, 6, 7}},
		{"L-srv-00/cpuUtil|L-srv-01/cpuUtil", [8]int{0, 0, 0, 0, 0, 0, 0, 0}},
		{"L-srv-02/memUsed|L-srv-03/netTx", [8]int{0, 0, 2, 3, 4, 4, 4, 4}},
	}
	for _, tc := range pinned {
		for n := 1; n <= 8; n++ {
			if got := Assign(tc.key, n); got != tc.want[n-1] {
				t.Errorf("Assign(%q, %d) = %d, want pinned %d — the rendezvous hash changed; existing shard checkpoints would be orphaned",
					tc.key, n, got, tc.want[n-1])
			}
		}
	}
}
