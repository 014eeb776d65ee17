package core

import (
	"bytes"
	"reflect"
	"testing"

	"taps/internal/obs/declog"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// nopPlane is a data plane with nothing to stop.
type nopPlane struct{}

func (nopPlane) Discard(simtime.Time, int64, int64) {}

// logKinds returns the kinds of the records a memory log holds past its
// first from.
func logKinds(t *testing.T, w *declog.Writer, from int) []declog.Kind {
	t.Helper()
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := declog.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []declog.Kind
	for _, r := range recs[from:] {
		kinds = append(kinds, r.Kind)
	}
	return kinds
}

// TestServicePolicy drives the decision service on a k = 4 fat-tree, every
// input at one now, and checks what each input of a case's last step
// answers and writes: a repeated probe re-plans an accepted task and
// nothing else, a TERM of a flow that is not in flight writes nothing, and
// a task ends once however many of its flows one input finishes.
func TestServicePolicy(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	h := g.Hosts()
	ms := simtime.Millisecond
	const now = 3 * simtime.Millisecond
	flow := func(key uint64, src, dst int, size int64) FlowSpec {
		return FlowSpec{Key: key, Src: h[src], Dst: h[dst], Size: size}
	}
	tasks := map[int64]struct {
		deadline simtime.Time
		flows    []FlowSpec
	}{
		1: {now + 30*ms, []FlowSpec{flow(10, 1, 9, 1e6)}},                         // admitted
		2: {now + ms, []FlowSpec{flow(20, 2, 10, 1e6)}},                           // cannot make its deadline
		3: {now + 10*ms, []FlowSpec{flow(30, 3, 11, 1_250_000)}},                  // no slack at all
		4: {now + 2*ms, []FlowSpec{flow(40, 3, 3, 10e6), flow(41, 3, 11, 125e3)}}, // preempts task 3
		5: {now + 40*ms, []FlowSpec{flow(50, 4, 12, 1e6), flow(51, 5, 13, 1e6)}},
		6: {now + 40*ms, []FlowSpec{flow(60, 6, 6, 1e6), flow(61, 7, 7, 0)}}, // done on arrival
	}
	type input struct {
		probe int64  // the task probed, or 0
		term  uint64 // the flow TERM'd when probe is 0
	}
	probe := func(task int64) input { return input{probe: task} }
	term := func(key uint64) input { return input{term: key} }
	again := func(d Decision) *Answer { return &Answer{Decision: d, Again: true} }
	K := struct{ task, replan, commit, admit, flowEnd, taskEnd declog.Kind }{
		declog.KindTask, declog.KindReplan, declog.KindCommit, declog.KindAdmit, declog.KindFlowEnd, declog.KindTaskEnd,
	}
	cases := []struct {
		name   string
		inputs []input
		answer *Answer // of a probe last
		want   []declog.Kind
	}{
		{"repeated probe of an admitted task", []input{probe(1), probe(1)},
			again(Accept), []declog.Kind{K.replan, K.commit}},
		{"repeated probe of a rejected task", []input{probe(2), probe(2)},
			again(RejectNew), nil},
		{"repeated probe of a preempted victim", []input{probe(3), probe(4), probe(3)},
			again(RejectNew), nil},
		{"TERM of an unknown flow", []input{probe(1), term(99)},
			nil, nil},
		{"TERM of a finished flow", []input{probe(1), term(10), term(10)},
			nil, nil},
		{"TERM of a discarded task's flow", []input{probe(3), probe(4), term(30)},
			nil, nil},
		{"TERM of one flow of two", []input{probe(5), term(51)},
			nil, []declog.Kind{K.flowEnd}},
		{"TERM of a task's last flow", []input{probe(5), term(51), term(50)},
			nil, []declog.Kind{K.flowEnd, K.taskEnd}},
		{"two flows finished on arrival", []input{probe(6)},
			&Answer{Decision: Accept},
			[]declog.Kind{K.task, K.replan, K.commit, K.admit, K.flowEnd, K.flowEnd, K.taskEnd}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The same inputs without a sink, as the SDN testbed runs them,
			// must get the same answers.
			w := &declog.Writer{}
			logged := NewService(g, r, DefaultConfig(), &declog.Sink{Log: w}, nopPlane{})
			silent := NewService(g, r, DefaultConfig(), nil, nopPlane{})
			var from, replans int
			for i, in := range tc.inputs {
				last := i == len(tc.inputs)-1
				if last {
					from, replans = len(logKinds(t, w, 0)), logged.Kernel().Replans()
				}
				if in.probe == 0 {
					logged.Term(now, in.term, 0)
					silent.Term(now, in.term, 0)
					continue
				}
				task := tasks[in.probe]
				got := logged.Probe(now, in.probe, task.deadline, task.flows)
				if quiet := silent.Probe(now, in.probe, task.deadline, task.flows); quiet != got {
					t.Fatalf("probe of task %d: %+v with a sink, %+v without", in.probe, got, quiet)
				}
				if last && tc.answer != nil && got != *tc.answer {
					t.Fatalf("probe of task %d: %+v, want %+v", in.probe, got, *tc.answer)
				}
			}
			if got := logKinds(t, w, from); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("the last input wrote %v, want %v", got, tc.want)
			}
			if tc.answer != nil && tc.answer.Again && tc.answer.Decision == RejectNew && logged.Kernel().Replans() != replans {
				t.Fatal("a repeated probe of a discarded task ran a planning pass")
			}
		})
	}
}

// TestServiceKnowsTheFateOfEachTask: the accepted set loses a task when it
// is preempted, and the rejected set holds every task decided and not
// accepted, in order.
func TestServiceKnowsTheFateOfEachTask(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	h := g.Hosts()
	ms := simtime.Millisecond
	s := NewService(g, r, DefaultConfig(), nil, nopPlane{})
	probe := func(task int64, deadline simtime.Time, flows ...FlowSpec) Answer {
		return s.Probe(0, task, deadline, flows)
	}
	if a := probe(7, 10*ms, FlowSpec{Key: 70, Src: h[1], Dst: h[9], Size: 1_250_000}); a.Decision != Accept {
		t.Fatalf("task 7: %+v, want accept", a)
	}
	if a := probe(5, ms, FlowSpec{Key: 50, Src: h[2], Dst: h[10], Size: 1e6}); a.Decision != RejectNew {
		t.Fatalf("task 5: %+v, want reject", a)
	}
	if got := s.AcceptedTasks(); !reflect.DeepEqual(got, []int64{7}) {
		t.Fatalf("accepted %v, want [7]", got)
	}
	a := probe(9, 2*ms, FlowSpec{Key: 90, Src: h[1], Dst: h[1], Size: 10e6}, FlowSpec{Key: 91, Src: h[1], Dst: h[9], Size: 125e3})
	if a.Decision != Preempt || a.Victim != 7 {
		t.Fatalf("task 9: %+v, want task 7 preempted", a)
	}
	if got := s.AcceptedTasks(); !reflect.DeepEqual(got, []int64{9}) {
		t.Fatalf("accepted %v, want [9]", got)
	}
	if got := s.RejectedTasks(); !reflect.DeepEqual(got, []int64{5, 7}) {
		t.Fatalf("rejected %v, want [5 7]", got)
	}
}

// TestTermCountsWhatWasDelivered: a TERM finishes its flow with what its
// sender left undelivered, which the reject rule's completion fraction
// and the flow's end record both read.
func TestTermCountsWhatWasDelivered(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	h := g.Hosts()
	w := &declog.Writer{}
	s := NewService(g, r, DefaultConfig(), &declog.Sink{Log: w}, nopPlane{})
	s.Probe(0, 5, 40*simtime.Millisecond, []FlowSpec{
		{Key: 50, Src: h[4], Dst: h[12], Size: 1e6}, {Key: 51, Src: h[5], Dst: h[13], Size: 1e6}})
	s.Term(0, 51, 0)
	if got := s.Kernel().Fraction(5); got != 0.5 {
		t.Fatalf("after flow 51 delivered all: fraction %v, want 0.5", got)
	}
	s.Term(0, 50, 250e3)
	if got := s.Kernel().Fraction(5); got != 0.875 {
		t.Fatalf("after flow 50 left 250 kB: fraction %v, want 0.875", got)
	}
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := declog.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[int64]bool)
	for _, rec := range recs {
		if rec.Kind == declog.KindFlowEnd {
			done[rec.Flow] = rec.Done
		}
	}
	if want := map[int64]bool{50: false, 51: true}; !reflect.DeepEqual(done, want) {
		t.Fatalf("flow ends delivered %v, want %v", done, want)
	}
}
