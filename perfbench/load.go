package main

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one /query the load generator sent.
type sample struct {
	q     int32   // query index
	latMS float64 // closed loop: from send; open loop: from the due time
	lagMS float64 // open loop: how late the request was sent
	svcMS float64 // from send to the end of the body
	rep   reply
	err   bool
	good  bool // answered correctly; set by the answer checks
	// lo and hi bound the write-mix epoch the answer may reflect: the
	// edges acked before the request was sent and the edges sent before
	// its answer arrived.
	lo, hi int64
}

// progress counts the write-mix writer's edges.
type progress struct{ sent, acked atomic.Int64 }

// ok reports whether the server answered 200 with a parseable body.
func (s *sample) ok() bool { return !s.err && s.rep.status == http.StatusOK }

// cursor hands out op indexes to every phase of one workload in turn,
// so the phases consume one continuous op sequence.
type cursor struct{ next atomic.Int64 }

func (c *cursor) take() int { return int(c.next.Add(1) - 1) }

func send(c *http.Client, addr string, in *inputs, op int, buf *bytes.Buffer, prog *progress) sample {
	q := in.op(op)
	var lo int64
	if prog != nil {
		lo = prog.acked.Load()
	}
	t0 := time.Now()
	rep, err := getQuery(c, addr, in.escaped[q], in.k, buf)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	s := sample{q: q, latMS: ms, svcMS: ms, rep: rep, err: err != nil, lo: lo}
	if prog != nil {
		s.hi = prog.sent.Load()
	}
	return s
}

// closedLoop keeps conns requests outstanding for dur and returns the
// samples and the elapsed time.
func closedLoop(c *http.Client, addr string, in *inputs, cur *cursor, conns int, dur time.Duration) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				per[w] = append(per[w], send(c, addr, in, cur.take(), &buf, nil))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, elapsed
}

// openLoop sends requests due at a fixed rate for dur over conns
// connections. A request's latency runs from its due time, so a server
// that falls behind is charged for the queueing it causes. If done is
// non-nil the loop also ends once it is closed; prog, if non-nil, stamps
// each sample with the writer's progress.
func openLoop(c *http.Client, addr string, in *inputs, cur *cursor, conns int, rate float64, dur time.Duration, done <-chan struct{}, prog *progress) []sample {
	n := int64(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-done:
						return
					}
				} else if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				lag := float64(time.Since(due).Nanoseconds()) / 1e6
				s := send(c, addr, in, cur.take(), &buf, prog)
				s.lagMS = lag
				s.latMS = float64(time.Since(due).Nanoseconds()) / 1e6
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}
