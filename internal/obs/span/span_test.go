package span

import (
	"reflect"
	"strings"
	"testing"

	"taps/internal/simtime"
)

func iv(s, e simtime.Time) simtime.Interval { return simtime.Interval{Start: s, End: e} }

func TestAttributionAndPreemption(t *testing.T) {
	tree := sampleTree()
	tree.LinkNames = []string{3: "agg0-core0"}
	why := WhyText(tree, 2)
	for _, want := range []string{"REJECTED", "agg0-core0", "task 1", "blocking links", "f20 h2->h3: never planned"} {
		if !strings.Contains(why, want) {
			t.Errorf("WhyText missing %q:\n%s", want, why)
		}
	}
	why = WhyText(sampleTree(), 4)
	for _, want := range []string{"PREEMPTED at 0.050ms by task 5", "pass #2 (arrival)", "link"} {
		if !strings.Contains(why, want) {
			t.Errorf("WhyText missing %q:\n%s", want, why)
		}
	}
	if got := WhyText(&Tree{}, 7); !strings.Contains(got, "no span recorded") {
		t.Fatalf("WhyText on an empty tree should explain the absence, got %q", got)
	}
}

func TestWhyTaskPicksHeldDiscard(t *testing.T) {
	tree := sampleTree()
	for arg, want := range map[string]int64{"rejected": 2, "4": 4} {
		if got, err := WhyTask(tree, arg); err != nil || got != want {
			t.Errorf("WhyTask(%q) = %d, %v; want %d", arg, got, err, want)
		}
	}
	// Without holders anywhere, the first discarded task is the answer.
	tree.Tasks[1].Blocks = nil
	if got, err := WhyTask(tree, "rejected"); err != nil || got != 2 {
		t.Errorf("WhyTask(rejected) with no holders = %d, %v; want 2", got, err)
	}
	tree.Tasks[1].Outcome, tree.Tasks[2].Outcome = OutcomeRunning, OutcomeCompleted
	if _, err := WhyTask(tree, "rejected"); err == nil {
		t.Error("WhyTask(rejected) on a tree with no discard succeeded")
	}
	if _, err := WhyTask(tree, "banana"); err == nil {
		t.Error("WhyTask(banana) succeeded")
	}
}

func TestRevokedWindows(t *testing.T) {
	// First plan grants [10,20) and [30,40); a pass at t=12 that was
	// never committed grants and revokes nothing; a second committed pass
	// at t=15 re-plans the flow, revoking [15,20) and [30,40).
	tree := &Tree{
		Tasks: []TaskSpan{{Task: 1, Deadline: 100, PreemptedBy: NoTask, Flows: []int64{5}}},
		Flows: []FlowSpan{{Flow: 5, Task: 1, Deadline: 100}},
		Replans: []ReplanSpan{
			{Seq: 1, Committed: true, Time: 0, Kind: ReplanArrival, Trigger: 1,
				Plans: []PlanSpan{{Flow: 5, Task: 1, Path: []int32{0},
					Slices: []simtime.Interval{iv(10, 20), iv(30, 40)}}}},
			{Seq: 2, Time: 12, Kind: ReplanArrival, Trigger: 3,
				Plans: []PlanSpan{{Flow: 5, Task: 1, Path: []int32{0},
					Slices: []simtime.Interval{iv(50, 90)}}}},
			{Seq: 3, Committed: true, Time: 15, Kind: ReplanArrival, Trigger: 2,
				Plans: []PlanSpan{{Flow: 5, Task: 1, Path: []int32{0},
					Slices: []simtime.Interval{iv(15, 25)}}}},
		},
	}
	want := []simtime.Interval{iv(15, 20), iv(30, 40)}
	if got := tree.RevokedByFlow()[5]; !reflect.DeepEqual(got, want) {
		t.Fatalf("revoked (superseded plan) = %v, want %v", got, want)
	}

	// A killed flow's final-plan slices past the kill instant are revoked
	// too: kill at t=18 revokes [18,25) of the second plan.
	f := tree.Flow(5)
	f.End, f.Ended, f.Note = 18, true, "preempted"
	want = []simtime.Interval{iv(15, 25), iv(30, 40)}
	if got := tree.RevokedByFlow()[5]; !reflect.DeepEqual(got, want) {
		t.Fatalf("revoked (killed flow) = %v, want %v", got, want)
	}

	if got := tree.RevokedByFlow()[404]; got != nil {
		t.Fatalf("unknown flow revoked = %v, want nil", got)
	}
}
