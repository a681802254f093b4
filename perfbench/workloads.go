package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ktpm"
	"ktpm/internal/server"
)

const (
	// Each run launches the servers minSetups to maxSetups times, going
	// on while under setupBudget; setup_s is the median launch.
	minSetups   = 3
	maxSetups   = 41
	setupBudget = 4 * time.Second

	conns      = 2                // load-generator connections (nproc is 2)
	warmCap    = 60 * time.Second // longest cache warm-up before giving up
	finalCheck = 16               // read queries re-asked after the run
	rounds     = 5                // closed+open rounds in a read run's measured seconds
)

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // ktpmd binary
	dir      string // this invocation's working directory
	in       *inputs
	logs     map[string]*os.File // server output by role, appended to by every launch
	ref      *ktpm.Database      // reference database over the base graph
	snapPath string              // v2 snapshot of the base graph, when served from one

	metrics   map[string]float64
	setups    int // launches made; the last one is measured
	attempted int
	failed    int
	problems  []string
	notes     []string
	rounds    string    // per-round figures behind the read medians
	phases    []string  // wall time per phase, for tuning the run length
	lastMark  time.Time // end of the previous phase

	// smoke shrinks the cache warm-up and the replay for the package's
	// own smoke test; the figures are then not comparable.
	smoke bool
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// mark records how long the phase that just ended took.
func (r *run) mark(phase string) {
	now := time.Now()
	r.phases = append(r.phases, fmt.Sprintf("%s=%.1fs", phase, now.Sub(r.lastMark).Seconds()))
	r.lastMark = now
}

// tailNote notes a p-th percentile metric taken over n samples with
// fewer than minTail of them beyond it, naming the highest percentile
// the samples do support.
func (r *run) tailNote(metric string, n int, p float64) {
	if b := beyond(n, p); b < minTail {
		r.notes = append(r.notes, fmt.Sprintf("%s rests on %d samples beyond it of %d; the highest percentile with %d beyond is p%v",
			metric, b, n, minTail, highestPercentile(n, []float64{50, 90, 99, 99.9})))
	}
}

// fail records a failed check; the run's result is then incorrect.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// prepare builds the reference database and the file the servers load:
// the graph text for read-hot, a v2 snapshot otherwise.
func (r *run) prepare() error {
	g, err := ktpm.LoadGraph(bytes.NewReader(r.in.graphText))
	if err != nil {
		return err
	}
	if r.ref, err = ktpm.BuildDatabase(g, ktpm.DatabaseOptions{}); err != nil {
		return err
	}
	if r.workload == "read-hot" {
		return os.WriteFile(r.graphPath(), r.in.graphText, 0o644)
	}
	r.snapPath = filepath.Join(r.dir, "graph.snap")
	f, err := os.Create(r.snapPath)
	if err != nil {
		return err
	}
	if err := ktpm.SaveSnapshotAs(f, r.ref, ktpm.SnapshotV2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *run) graphPath() string { return filepath.Join(r.dir, "graph.txt") }

// answer is the reference answer to query string qs on db: the top-k
// of its canonical form, hashed as a server would encode it.
func answer(db *ktpm.Database, qs string, k int) (uint64, error) {
	q, err := db.ParseQuery(qs)
	if err != nil {
		return 0, err
	}
	cq, err := db.ParseQuery(q.Canonical())
	if err != nil {
		return 0, err
	}
	ms, err := db.TopK(cq, k)
	if err != nil {
		return 0, err
	}
	return referenceHash(toJSON(ms)), nil
}

func toJSON(ms []ktpm.Match) []server.MatchJSON {
	out := make([]server.MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = server.MatchJSON{Score: m.Score, Nodes: m.Nodes}
	}
	return out
}

// references computes the reference answer of every listed query on db,
// on two goroutines.
func references(db *ktpm.Database, in *inputs, qs []int32) (map[int32]uint64, error) {
	out := make(map[int32]uint64, len(qs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int32)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				h, err := answer(db, in.queries[q], in.k)
				mu.Lock()
				out[q] = h
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, q := range qs {
		next <- q
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// launch starts the processes serving the workload. walDir is the write
// path's directory (write-mix only).
func (r *run) launch(addrs []string, walDir string) (*fleet, error) {
	start := func(name string, args ...string) (*proc, error) {
		addr := addrs[0]
		addrs = addrs[1:]
		return startKtpmd(r.bin, addr, r.logs[name], args...)
	}
	f := &fleet{}
	var err error
	switch r.workload {
	case "read-hot":
		f.front, err = start("ktpmd", "-graph", r.graphPath())
		f.procs = []*proc{f.front}
	case "read-deep":
		f.front, err = start("ktpmd", "-snapshot", r.snapPath, "-snapshot-mode", "mmap", "-shards", "2", "-partition", "hash",
			"-cache", fmt.Sprint(deepCache))
		f.procs = []*proc{f.front}
	case "read-dist":
		var workers []string
		for w := 0; w < 2; w++ {
			p, err := start(fmt.Sprintf("worker%d", w), "-role", "worker", "-worker-index", fmt.Sprint(w), "-worker-count", "2",
				"-snapshot", r.snapPath, "-snapshot-mode", "mmap", "-partition", "hash")
			if err != nil {
				f.stop()
				return nil, err
			}
			f.procs = append(f.procs, p)
			workers = append(workers, p.addr)
		}
		f.front, err = start("coordinator", "-role", "coordinator", "-workers", strings.Join(workers, ","),
			"-snapshot", r.snapPath, "-snapshot-mode", "mmap", "-partition", "hash", "-cache", fmt.Sprint(deepCache))
		if f.front != nil {
			f.procs = append(f.procs, f.front)
		}
	case "write-mix":
		f.front, err = start("ktpmd", "-snapshot", r.snapPath, "-snapshot-mode", mixSnapMode.String(),
			"-wal-dir", walDir, "-fsync", "always", "-compact-threshold", fmt.Sprint(mixCompactAt))
		f.procs = []*proc{f.front}
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// openLogs opens a log file per server role. The files are created
// before set-up so that no launch is timed creating them.
func (r *run) openLogs() error {
	roles := []string{"ktpmd"}
	if r.workload == "read-dist" {
		roles = []string{"worker0", "worker1", "coordinator"}
	}
	r.logs = map[string]*os.File{}
	for _, role := range roles {
		f, err := os.OpenFile(filepath.Join(r.dir, role+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		r.logs[role] = f
	}
	return nil
}

func (r *run) closeLogs() {
	for _, f := range r.logs {
		f.Close()
	}
}

// setUp launches the workload's servers minSetups to maxSetups times,
// timing each launch to its first verified answer, and keeps the last
// fleet running. dataDir(i), when given, lays out launch i's data
// directory before the launch is timed.
func (r *run) setUp(c *http.Client, dataDir func(int) (string, error)) (*fleet, error) {
	probe := r.in.op(0)
	want, err := answer(r.ref, r.in.queries[probe], r.in.k)
	if err != nil {
		return nil, err
	}
	var times []float64
	var f *fleet
	begin := time.Now()
	for i := 0; ; i++ {
		wd := ""
		if dataDir != nil {
			if wd, err = dataDir(i); err != nil {
				return nil, err
			}
		}
		addrs, err := freeAddrs(len(r.logs)) // one server per role
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if f, err = r.launch(addrs, wd); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		for {
			if f.exited() {
				f.stop()
				return nil, fmt.Errorf("%s exited during start-up (logs in %s)", r.workload, r.dir)
			}
			rep, err := getQuery(c, f.front.addr, r.in.escaped[probe], r.in.k, &buf)
			if err == nil && rep.status == http.StatusOK {
				if rep.hash != want {
					f.stop()
					return nil, fmt.Errorf("start-up probe answered wrongly")
				}
				break
			}
			if time.Since(t0) > 120*time.Second {
				f.stop()
				return nil, fmt.Errorf("no answer within 120s of launch")
			}
			time.Sleep(200 * time.Microsecond) // fine enough not to quantize a launch of a few ms
		}
		times = append(times, time.Since(t0).Seconds())
		if i+1 >= maxSetups || (i+1 >= minSetups && time.Since(begin) > setupBudget) {
			r.setups = i + 1
			break
		}
		f.stop()
	}
	r.set("setup_s", median(times))
	r.notes = append(r.notes, fmt.Sprintf("setup_s is the median of %d launches: %.4g s", len(times), times))
	return f, nil
}

// checkReads verifies every read against the reference answers and
// counts attempted and failed ops.
func (r *run) checkReads(ref map[int32]uint64, phases ...[]sample) {
	bad, n := 0, 0
	for _, samples := range phases {
		for i := range samples {
			s := &samples[i]
			r.attempted++
			n++
			s.good = s.ok() && s.rep.hash == ref[s.q]
			if !s.good {
				r.failed++
				bad++
			}
		}
	}
	if bad > 0 {
		r.fail("%d of %d reads failed or answered wrongly", bad, n)
	}
}

func distinctQ(phases ...[]sample) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, samples := range phases {
		for _, s := range samples {
			if !seen[s.q] {
				seen[s.q] = true
				out = append(out, s.q)
			}
		}
	}
	return out
}

// setReadMetrics sets the metrics of verified read rounds: the closed
// loops (none on write-mix) give query_qps, the open loops the
// latencies, each a median over the rounds.
func (r *run) setReadMetrics(closed [][]sample, closedSecs []float64, open [][]sample) {
	lat := func(s *sample) float64 { return s.latMS }
	if len(closed) > 0 {
		var qps, p50 []float64
		for i, c := range closed {
			qps = append(qps, float64(len(goodValues(c, lat)))/closedSecs[i])
			p50 = append(p50, percentile(goodValues(open[i], lat), 50))
		}
		r.set("query_qps", median(qps))
		r.rounds = fmt.Sprintf("query_qps %.4g query_p50_ms %.4g", qps, p50)
	}
	for _, p := range []float64{50, 90, 99} {
		name := fmt.Sprintf("query_p%v_ms", p)
		v, n := roundsPercentile(open, p, lat)
		r.set(name, v)
		r.tailNote(name, n, p)
	}
	var all []sample
	for _, o := range open {
		all = append(all, o...)
	}
	r.set("query_samples", float64(len(goodValues(all, lat))))
	whole := func(p float64, pick func(*sample) float64) float64 { return percentile(goodValues(all, pick), p) }
	r.set("loadgen.lag_p99_ms", whole(99, func(s *sample) float64 { return s.lagMS }))
	r.set("server.elapsed_ms", whole(50, func(s *sample) float64 { return s.rep.elapsedMS }))
	r.set("server.residual_us", 1000*whole(50, func(s *sample) float64 { return s.svcMS - s.rep.elapsedMS }))
}

// finalSet is the queries re-asked after the run to compare the HTTP
// run's final state with the traced replay's: the first distinct
// queries of the op sequence.
func (r *run) finalSet() []int32 {
	if r.workload == "write-mix" {
		out := make([]int32, len(r.in.queries))
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	seen := map[int32]bool{}
	var out []int32
	for i := 0; len(out) < finalCheck; i++ {
		if q := r.in.op(i); !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// finalAnswers asks every final-set query over HTTP.
func (r *run) finalAnswers(c *http.Client, addr string) (map[int32]uint64, error) {
	out := map[int32]uint64{}
	var buf bytes.Buffer
	for _, q := range r.finalSet() {
		rep, err := getQuery(c, addr, r.in.escaped[q], r.in.k, &buf)
		if err != nil {
			return nil, err
		}
		if rep.status != http.StatusOK {
			return nil, fmt.Errorf("final query %d: status %d", q, rep.status)
		}
		out[q] = rep.hash
	}
	return out, nil
}

// runRead drives read-hot, read-deep and read-dist: set-up, a cache
// warm-up, a closed loop for capacity, then an open loop for latency.
func (r *run) runRead() error {
	if err := r.prepare(); err != nil {
		return err
	}
	r.mark("prepare")
	c := newClient(conns)
	f, err := r.setUp(c, nil)
	if err != nil {
		return err
	}
	r.mark("setup")
	defer f.stop()
	addr := f.front.addr
	var cur cursor
	cur.next.Store(1) // op 0 was the start-up probe

	// Warm-up: read-hot until every hot query has been asked; the deep
	// workloads until the result cache is full, after which the hit rate
	// is steady at capacity/keyspace.
	var warm []sample
	warmStart := time.Now()
	switch r.workload {
	case "read-hot":
		w, _ := closedLoop(c, addr, r.in, &cur, conns, time.Duration(r.seconds)*time.Second/10)
		warm = append(warm, w...)
	default:
		for {
			w, _ := closedLoop(c, addr, r.in, &cur, conns, 500*time.Millisecond)
			warm = append(warm, w...)
			st, err := fetchStats(c, addr)
			if err != nil {
				return err
			}
			if st.Cache.Entries >= st.Cache.Capacity || (r.smoke && st.Cache.Entries >= 64) {
				break
			}
			if time.Since(warmStart) > warmCap {
				return fmt.Errorf("cache holds %d of %d entries after %v of warm-up (%d requests)",
					st.Cache.Entries, st.Cache.Capacity, warmCap, len(warm))
			}
		}
	}
	r.mark("warm-up")
	st0, err := fetchStats(c, addr)
	if err != nil {
		return err
	}
	// The measured seconds alternate a closed-loop quarter and an
	// open-loop three quarters over several rounds, so a slow spell of a
	// shared machine moves one round's figures, not the medians.
	slice := time.Duration(r.seconds) * time.Second / rounds
	rate := map[string]float64{"read-hot": hotRate, "read-deep": deepRate, "read-dist": distRate}[r.workload]
	var closed, open [][]sample
	var closedSecs []float64
	for i := 0; i < rounds; i++ {
		cl, elapsed := closedLoop(c, addr, r.in, &cur, conns, slice/4)
		closed, closedSecs = append(closed, cl), append(closedSecs, elapsed.Seconds())
		open = append(open, openLoop(c, addr, r.in, &cur, conns, rate, slice*3/4, nil, nil))
	}
	r.mark("measure")
	st1, err := fetchStats(c, addr)
	if err != nil {
		return err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return err
	}
	data := r.snapPath
	if r.workload == "read-hot" {
		data = r.graphPath()
	}
	disk, err := diskMB(data)
	if err != nil {
		return err
	}
	var final map[int32]uint64
	if r.trace {
		if final, err = r.finalAnswers(c, addr); err != nil {
			return err
		}
	}

	r.set("server_rss_mb", rss)
	r.set("disk_mb", disk)
	r.cacheMetrics(st0, st1)

	// Stop the front end before verifying so the reference computation
	// does not compete with it; read-dist keeps its workers for the
	// traced replay's coordinator.
	var workers []*proc
	if r.workload == "read-dist" && r.trace {
		workers = f.procs[:len(f.procs)-1]
		f.front.stop()
	} else {
		f.stop()
	}
	defer func() {
		for _, p := range workers {
			p.stop()
		}
	}()
	if r.trace {
		if err := r.replayAll(workers, final); err != nil {
			return err
		}
		r.mark("replay")
	}
	phases := append(append([][]sample{warm}, closed...), open...)
	ref, err := references(r.ref, r.in, distinctQ(phases...))
	if err != nil {
		return err
	}
	r.checkReads(ref, phases...)
	r.setReadMetrics(closed, closedSecs, open)
	r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	r.mark("verify")
	return nil
}

// cacheMetrics derives the result-cache and admission figures from two
// /stats snapshots around the timed window.
func (r *run) cacheMetrics(st0, st1 *server.StatsResponse) {
	hits := st1.Cache.Hits - st0.Cache.Hits
	misses := st1.Cache.Misses - st0.Cache.Misses
	if hits+misses > 0 {
		r.set("lru.hit_frac", float64(hits)/float64(hits+misses))
	}
	r.set("lru.evictions", float64(st1.Cache.Evictions-st0.Cache.Evictions))
	if st1.Latency != nil {
		if q, ok := st1.Latency.Stages["admission_wait"]; ok {
			r.set("server.admission_wait_p99_ms", q.P99MS)
		}
	}
	if st1.Workers != nil {
		var retries, hedges int64
		for _, w := range st1.Workers.Workers {
			retries += w.Retries
			hedges += w.Hedges
		}
		r.set("remote.retries", float64(retries))
		r.set("remote.hedges", float64(hedges))
	}
}

// ack is one acknowledged /ingest.
type ack struct {
	lsn    uint64
	status int
	latMS  float64
	err    bool
}

// runMix drives write-mix: one writer replays the whole edge stream in a
// closed loop while one reader sends queries at a fixed rate.
func (r *run) runMix() error {
	if err := r.prepare(); err != nil {
		return err
	}
	c := newClient(1)
	laidOut := filepath.Join(r.dir, "laid-out")
	if err := r.layOut(c, laidOut); err != nil {
		return err
	}
	r.mark("prepare")
	walDir := func(i int) string { return filepath.Join(r.dir, fmt.Sprintf("live-%d", i)) }
	f, err := r.setUp(c, func(i int) (string, error) { return walDir(i), copyTree(laidOut, walDir(i)) })
	if err != nil {
		return err
	}
	r.mark("setup")
	defer f.stop()
	addr := f.front.addr
	wc := newClient(1)
	st0, err := fetchStats(c, addr)
	if err != nil {
		return err
	}

	var prog progress
	done := make(chan struct{})
	acks := make([]ack, len(r.in.edges))
	var streamElapsed time.Duration
	go func() {
		defer close(done)
		t0 := time.Now()
		for i, e := range r.in.edges {
			prog.sent.Add(1)
			t1 := time.Now()
			lsn, status, err := ingest(wc, addr, e.From, e.To, e.Weight)
			acks[i] = ack{lsn: lsn, status: status, latMS: float64(time.Since(t1).Nanoseconds()) / 1e6, err: err != nil}
			prog.acked.Add(1)
		}
		streamElapsed = time.Since(t0)
	}()
	var cur cursor
	cur.next.Store(1)
	reads := openLoop(c, addr, r.in, &cur, 1, mixRate, time.Hour, done, &prog)
	<-done
	r.mark("measure")

	// Let every compaction the stream triggered finish, so disk_mb counts
	// a settled set of files. An overlay at or over the threshold means a
	// compaction is signalled but may not have started yet.
	var st1 *server.StatsResponse
	for t0 := time.Now(); ; time.Sleep(20 * time.Millisecond) {
		if st1, err = fetchStats(c, addr); err != nil {
			return err
		}
		in := st1.Ingest
		if in == nil {
			return fmt.Errorf("/stats has no ingest block")
		}
		if !in.Compaction.InProgress && in.Overlay.Entries < in.Compaction.Threshold {
			break
		}
		if time.Since(t0) > 30*time.Second {
			r.fail("compaction still pending 30s after the stream (overlay %d entries, threshold %d)",
				in.Overlay.Entries, in.Compaction.Threshold)
			break
		}
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return err
	}
	disk, err := diskMB(r.snapPath, walDir(r.setups-1))
	if err != nil {
		return err
	}
	final, err := r.finalAnswers(c, addr)
	if err != nil {
		return err
	}
	f.stop()

	// Acks: every edge acked with a dense LSN.
	var ackLat []float64
	bad := 0
	for i, a := range acks {
		r.attempted++
		if a.err || a.status != http.StatusOK || a.lsn != uint64(i+1) {
			r.failed++
			bad++
			continue
		}
		ackLat = append(ackLat, a.latMS)
	}
	if bad > 0 {
		r.fail("%d of %d ingests failed or broke the dense LSN sequence", bad, len(acks))
	}
	r.set("ingest_edges_per_s", float64(len(r.in.edges))/streamElapsed.Seconds())
	r.set("ingest_p50_ms", percentile(ackLat, 50))
	r.set("ingest_p90_ms", percentile(ackLat, 90))
	r.tailNote("ingest_p90_ms", len(ackLat), 90)
	r.set("server_rss_mb", rss)
	r.set("disk_mb", disk)
	r.cacheMetrics(st0, st1)
	r.set("ktpm.compactions", float64(st1.Ingest.Compaction.Count))

	// After the stream the answers must equal a from-scratch build over
	// the base graph plus every ingested edge.
	all := map[int32]bool{}
	for _, q := range r.finalSet() {
		all[q] = true
	}
	want, err := r.answersAt(len(r.in.edges), all)
	if err != nil {
		return err
	}
	for q, h := range final {
		r.attempted++
		if want[q] != h {
			r.failed++
			r.fail("after the stream, query %d differs from a from-scratch build", q)
		}
	}
	if r.trace {
		if err := r.replayAll(nil, final); err != nil {
			return err
		}
		r.mark("replay")
	}

	// Every read during the stream must equal the answer of an epoch it
	// could have seen.
	if err := r.checkMixReads(reads); err != nil {
		return err
	}
	// The reader is open-loop only, so query_qps (closed-loop capacity)
	// is not measured here.
	r.setReadMetrics(nil, nil, [][]sample{reads})
	r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	r.mark("verify")
	return nil
}

// layOut has a ktpmd lay out the write path's data directory dir on a
// first start, then stops it. Every write-mix launch starts from a copy
// of dir, as a deployed server restarts, so no timed launch creates
// directories: that waits on the file system's journal, which every
// other writer on the host shares.
func (r *run) layOut(c *http.Client, dir string) error {
	addrs, err := freeAddrs(1)
	if err != nil {
		return err
	}
	p, err := startKtpmd(r.bin, addrs[0], r.logs["ktpmd"], "-snapshot", r.snapPath, "-snapshot-mode", mixSnapMode.String(),
		"-wal-dir", dir, "-fsync", "always", "-compact-threshold", fmt.Sprint(mixCompactAt))
	if err != nil {
		return err
	}
	defer p.stop()
	for t0 := time.Now(); ; time.Sleep(time.Millisecond) {
		if p.exited() {
			return fmt.Errorf("ktpmd exited during start-up (logs in %s)", r.dir)
		}
		if _, err := fetchStats(c, p.addr); err == nil {
			return nil
		}
		if time.Since(t0) > 120*time.Second {
			return fmt.Errorf("no answer within 120s of launch")
		}
	}
}

// copyTree copies the regular files and directories below src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, fi.Mode().Perm())
	})
}

// checkMixReads checks each read of the stream against from-scratch
// builds (ktpm.BuildDatabase over the base graph plus the first e
// edges) at every epoch e between the edges acked before the read was
// sent and the edges sent before it was answered.
func (r *run) checkMixReads(reads []sample) error {
	need := map[int64]map[int32]bool{}
	for i := range reads {
		s := &reads[i]
		if !s.ok() {
			continue
		}
		for e := s.lo; e <= s.hi; e++ {
			if need[e] == nil {
				need[e] = map[int32]bool{}
			}
			need[e][s.q] = true
		}
	}
	type key struct {
		e int64
		q int32
	}
	ref := map[key]uint64{}
	var mu sync.Mutex
	var firstErr error
	epochs := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range epochs {
				hs, err := r.answersAt(int(e), need[e])
				mu.Lock()
				for q, h := range hs {
					ref[key{e, q}] = h
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for e := range need {
		epochs <- e
	}
	close(epochs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	bad := 0
	for i := range reads {
		s := &reads[i]
		r.attempted++
		ok := false
		if s.ok() {
			for e := s.lo; e <= s.hi && !ok; e++ {
				ok = ref[key{e, s.q}] == s.rep.hash
			}
		}
		s.good = ok
		if !ok {
			r.failed++
			bad++
		}
	}
	if bad > 0 {
		r.fail("%d of %d reads during the stream failed or matched no epoch they could have seen", bad, len(reads))
	}
	return nil
}

// answersAt answers the given queries on a from-scratch build of the
// base graph plus the first n stream edges.
func (r *run) answersAt(n int, qs map[int32]bool) (map[int32]uint64, error) {
	g, err := r.in.graphWith(n)
	if err != nil {
		return nil, err
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		return nil, err
	}
	out := make(map[int32]uint64, len(qs))
	for q := range qs {
		if out[q], err = answer(db, r.in.queries[q], r.in.k); err != nil {
			return nil, err
		}
	}
	return out, nil
}
