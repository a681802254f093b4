package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// parent [0,100); two overlapping children [10,40) and [30,60), one
	// child running past the parent [90,120), and a grandchild inside the
	// first child that must not count against the parent.
	spans := []span{
		{name: "merge", start: 0, end: 100, parent: -1},
		{name: "shard", start: 10, end: 40, parent: 0},
		{name: "shard", start: 30, end: 60, parent: 0},
		{name: "shard", start: 90, end: 120, parent: 0},
		{name: "fault", start: 15, end: 20, parent: 1},
	}
	lt := selfTimes(spans)
	if got := lt["merge"].selfNS; got != 100-50-10 {
		t.Errorf("merge self = %d, want 40", got)
	}
	if got := lt["shard"].totalNS; got != 30+30+30 {
		t.Errorf("shard total = %d, want 90", got)
	}
	if got := lt["shard"].selfNS; got != 90-5 {
		t.Errorf("shard self = %d, want 85", got)
	}
	if got := lt["fault"].count; got != 1 {
		t.Errorf("fault count = %d", got)
	}
}

func TestSelfTimeUnendedChildCoversRest(t *testing.T) {
	spans := []span{
		{name: "p", start: 0, end: 50, parent: -1},
		{name: "c", start: 20, end: -1, parent: 0},
	}
	if got := selfTimes(spans)["p"].selfNS; got != 20 {
		t.Errorf("self = %d, want 20", got)
	}
	if _, ok := selfTimes(spans)["c"]; ok {
		t.Error("unended span reported")
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 || len(r.spans) != 0 {
		t.Fatalf("disabled recorder recorded: id %d, %d spans", id, len(r.spans))
	}
	r = newRecorder(true)
	p := r.begin("p", -1, 3)
	c := r.begin("c", p, 3)
	r.end(c)
	r.end(p)
	if len(r.spans) != 2 || r.spans[1].parent != p || r.spans[0].end < r.spans[1].end {
		t.Fatalf("bad spans %+v", r.spans)
	}
}
