package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer during the traced replay. Times
// are nanoseconds since the recorder's epoch; parent is -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// recorder keeps the replay's spans in memory. A disabled recorder
// records nothing and hands out id -1, so the same replay code measures
// its own untraced cost.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: r.now(), end: -1, parent: parent, op: op})
	return int32(len(r.spans) - 1)
}

// end closes span id (a no-op for -1).
func (r *recorder) end(id int32) {
	if id >= 0 {
		r.spans[id].end = r.now()
	}
}

// add records an already-finished span, for intervals measured elsewhere
// (the obs spans the shard scatter-gather opens in its goroutines).
func (r *recorder) add(name string, parent, op int32, start, end int64) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return int32(len(r.spans) - 1)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count   int
	totalNS int64
	selfNS  int64
}

// selfTimes derives, per span name, the total and self time of every
// span: self time is the span's duration minus the union of its
// children's intervals clipped to the span. Children may overlap each
// other (concurrent shard enumerations), so they are merged as
// intervals, never summed.
func selfTimes(spans []span) map[string]*layerTime {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		if s.end < s.start {
			continue // never ended
		}
		dur := s.end - s.start
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		lt.count++
		lt.totalNS += dur
		lt.selfNS += dur - covered(spans, kids[i], s.start, s.end)
	}
	return out
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, id := range ids {
		s := spans[id]
		a, b := max(s.start, lo), min(s.end, hi)
		if s.end < s.start {
			b = hi // still running when the parent ended
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}
