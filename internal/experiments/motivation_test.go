package experiments

import (
	"strings"
	"testing"

	"taps/internal/sim"
)

func byName(t *testing.T, rs []MotivationResult, name string) MotivationResult {
	t.Helper()
	for _, r := range rs {
		if r.Scheduler == name {
			return r
		}
	}
	t.Fatalf("no result for %s", name)
	return MotivationResult{}
}

// TestFig1 checks the worked example of §III-A against the paper:
// Fair Sharing completes 1 flow / 0 tasks, D3 1 flow / 0 tasks, PDQ 2
// flows / 0 tasks, task-aware scheduling (TAPS) 2 flows / 1 task.
func TestFig1(t *testing.T) {
	rs, err := Fig1(AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		flows, task int
	}{
		{"FairSharing", 1, 0},
		{"D3", 1, 0},
		{"PDQ", 2, 0},
		{"TAPS", 2, 1},
	}
	for _, c := range cases {
		r := byName(t, rs, c.name)
		if r.FlowsOnTime != c.flows || r.TasksCompleted != c.task {
			t.Errorf("%s: flows=%d tasks=%d, paper says flows=%d tasks=%d",
				c.name, r.FlowsOnTime, r.TasksCompleted, c.flows, c.task)
		}
	}
	// No scheduler may complete 2 tasks on Fig. 1: the instance holds
	// 10 size units for a 4-unit deadline on one link.
	for _, r := range rs {
		if r.TasksCompleted > 1 {
			t.Errorf("%s completed %d tasks; instance admits at most 1", r.Scheduler, r.TasksCompleted)
		}
	}
}

// TestFig2 checks the preemption example of §III-A: Varys completes 1 task
// (it admits t1 and rejects the urgent t2), TAPS completes both.
func TestFig2(t *testing.T) {
	rs, err := Fig2(AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	varys := byName(t, rs, "Varys")
	if varys.TasksCompleted != 1 {
		t.Errorf("Varys completed %d tasks, paper says 1", varys.TasksCompleted)
	}
	taps := byName(t, rs, "TAPS")
	if taps.TasksCompleted != 2 {
		t.Errorf("TAPS completed %d tasks, paper says 2", taps.TasksCompleted)
	}
	if taps.FlowsOnTime != 4 {
		t.Errorf("TAPS flows on time = %d, want 4", taps.FlowsOnTime)
	}
	// Baraat is deadline-agnostic: the urgent task t2 must fail under it.
	baraat := byName(t, rs, "Baraat")
	if baraat.TasksCompleted > 1 {
		t.Errorf("Baraat completed %d tasks; the urgent task must fail", baraat.TasksCompleted)
	}
}

// TestFig3 checks the global-scheduling example of §III-A: PDQ (with the
// example's full flow list at S3) completes 3 flows; TAPS completes all 4
// — including f4's split allocation (0,1) ∪ (2,3).
func TestFig3(t *testing.T) {
	rs, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if got := rs["PDQ"].FlowsOnTime; got != 3 {
		t.Errorf("PDQ flows on time = %d, paper says 3", got)
	}
	if got := rs["TAPS"].FlowsOnTime; got != 4 {
		t.Errorf("TAPS flows on time = %d, paper says 4", got)
	}
}

// mustScheduler is NewScheduler for a name the test knows is valid.
func mustScheduler(t *testing.T, name string) sim.Scheduler {
	t.Helper()
	s, err := NewScheduler(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchedulerUnknownIsError(t *testing.T) {
	s, err := NewScheduler("Bogus")
	if err == nil {
		t.Fatalf("NewScheduler(%q) = %v, want an error", "Bogus", s)
	}
	for _, want := range append([]string{`"Bogus"`}, AllSchedulers()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestAllSchedulersConstructible(t *testing.T) {
	for _, name := range AllSchedulers() {
		s := mustScheduler(t, name)
		if s.Name() != name {
			t.Errorf("NewScheduler(%q).Name() = %q", name, s.Name())
		}
	}
}
