package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ktpm"
	"ktpm/internal/closure"
	"ktpm/internal/fsio"
	"ktpm/internal/graph"
	"ktpm/internal/lazy"
	"ktpm/internal/lru"
	"ktpm/internal/obs"
	"ktpm/internal/query"
	"ktpm/internal/remote"
	"ktpm/internal/server"
	"ktpm/internal/shard"
	"ktpm/internal/store"
	"ktpm/internal/wal"
)

// Ops the traced replay runs per read workload (write-mix replays its
// whole edge stream with mixRate/mixEdgesPerSec reads per edge).
var replayOps = map[string]int{"read-hot": 20000, "read-deep": 200, "read-dist": 200}

// activeSample bounds the extra enumerations that measure
// lazy.active_frac on sharded workloads.
const activeSample = 50

// replayer replays one workload's op sequence in-process, calling each
// layer in the order the server (and Live.Ingest) calls it and
// recording a span per call.
type replayer struct {
	r     *run
	rec   *recorder
	cache *lru.Cache[[]server.MatchJSON]

	g     *graph.Graph // current graph (its labels parse queries)
	st    *store.Store
	sdb   *shard.DB
	coord *remote.Coordinator
	cdb   *ktpm.Database // the coordinator's local database
	epoch int

	enumerated                  int
	matches                     int64
	tablesRead, blocksRead, ent int64
	created, active             int64
	merged                      int64
	respBytes                   []float64
	missed                      []*query.Tree
	deltaEntries, mergedTables  []float64
	walBytes                    int64
	steps                       []mixStep        // write-mix: the write path after each ingest
	final                       map[int32]uint64 // answers to the final set, after the replay
}

func (p *replayer) counters() store.Counters {
	if p.sdb != nil {
		return p.sdb.Counters()
	}
	return p.st.Counters()
}

func (p *replayer) mergedTotal() int64 {
	var n int64
	if p.sdb != nil {
		for i := 0; i < p.sdb.NumShards(); i++ {
			n += p.sdb.Merged(i)
		}
	}
	return n
}

// enumerate answers canonical query t the way the workload's backend
// does: Topk-EN on one store, the shard scatter-gather, or the remote
// coordinator (which the replay also checks against the local gather).
func (p *replayer) enumerate(t *query.Tree, canonical string, op int32) ([]server.MatchJSON, error) {
	k := p.r.in.k
	io0, m0 := p.counters(), p.mergedTotal()
	var ms []*lazy.Match
	switch {
	case p.sdb == nil:
		s := p.rec.begin("lazy.enumerate", -1, op)
		e := lazy.New(p.st, t, lazy.Options{Trace: obs.StartRoot("enumerate")})
		ms, _ = lazy.DrainTopK(e, k)
		p.rec.end(s)
		cs := e.ComputeStats()
		p.created += int64(cs.CreatedNodes)
		p.active += int64(cs.ActiveNodes)
	default:
		if p.coord != nil {
			pq, err := p.cdb.ParseQuery(canonical)
			if err != nil {
				return nil, err
			}
			s := p.rec.begin("remote.topk", -1, op)
			rms, err := p.coord.TopKWith(pq, k, ktpm.Options{})
			p.rec.end(s)
			if err != nil {
				return nil, err
			}
			defer func(remote uint64) {
				if local := referenceHash(matchJSON(ms)); local != remote {
					p.r.fail("op %d: coordinator answer differs from the local scatter-gather", op)
				}
			}(referenceHash(toJSON(rms)))
		}
		s := p.rec.begin("shard.topk", -1, op)
		root := obs.StartRoot("enumerate")
		rootStart := p.rec.now()
		ms = p.sdb.TopKOpts(t, k, lazy.Options{Trace: root})
		root.End()
		p.rec.end(s)
		p.importShardEnumerations(root.Snapshot(), rootStart, s, op)
		if len(p.missed) < activeSample {
			p.missed = append(p.missed, t)
		}
	}
	io1 := p.counters()
	p.enumerated++
	p.matches += int64(len(ms))
	p.tablesRead += io1.TablesRead - io0.TablesRead
	p.blocksRead += io1.BlocksRead - io0.BlocksRead
	p.ent += io1.EntriesRead - io0.EntriesRead
	p.merged += p.mergedTotal() - m0
	return matchJSON(ms), nil
}

func matchJSON(ms []*lazy.Match) []server.MatchJSON {
	out := make([]server.MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = server.MatchJSON{Score: m.Score, Nodes: m.Nodes}
	}
	return out
}

// importShardEnumerations records each shard's enumeration (the obs
// "shard_enumerate" spans the gather opens in its goroutines) as a
// lazy.enumerate child of the shard.topk span.
func (p *replayer) importShardEnumerations(root *obs.SpanJSON, rootStart int64, parent, op int32) {
	if !p.rec.on || root == nil {
		return
	}
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		for _, c := range s.Children {
			if c.Name == "shard_enumerate" {
				st := rootStart + int64(c.StartUS*1e3)
				p.rec.add("lazy.enumerate", parent, op, st, st+int64(c.DurMS*1e6))
				continue
			}
			walk(c)
		}
	}
	walk(root)
}

// read replays one /query: parse, canonicalize, probe the result cache
// and, on a miss, reparse the canonical form, enumerate, encode and
// fill the cache.
func (p *replayer) read(q int32, op int32) error {
	in := p.r.in
	s := p.rec.begin("query.parse", -1, op)
	t, err := query.Parse(p.g.Labels.Extend(), in.queries[q])
	p.rec.end(s)
	if err != nil {
		return err
	}
	s = p.rec.begin("query.canonical", -1, op)
	canonical := t.Canonical()
	p.rec.end(s)
	key := fmt.Sprintf("%d|%s|%d", p.epoch, canonical, in.k)
	s = p.rec.begin("lru.probe", -1, op)
	_, hit := p.cache.Get(key)
	p.rec.end(s)
	if hit {
		return nil
	}
	s = p.rec.begin("query.parse", -1, op)
	ct, err := query.Parse(p.g.Labels.Extend(), canonical)
	p.rec.end(s)
	if err != nil {
		return err
	}
	mj, err := p.enumerate(ct, canonical, op)
	if err != nil {
		return err
	}
	s = p.rec.begin("server.encode", -1, op)
	resp := server.QueryResponse{Query: in.queries[q], Canonical: canonical, K: in.k, Algorithm: "topk-en",
		Positions: make([]string, ct.NumNodes()), Matches: mj}
	for i := range resp.Positions {
		resp.Positions[i] = ct.LabelName(int32(i))
	}
	b, err := json.Marshal(resp)
	p.rec.end(s)
	if err != nil {
		return err
	}
	p.respBytes = append(p.respBytes, float64(len(b)))
	s = p.rec.begin("lru.put", -1, op)
	p.cache.Put(key, mj)
	p.rec.end(s)
	return nil
}

// finalAnswers answers the final set untraced on the replay's final
// state (before the replay releases its snapshots).
func (p *replayer) finalAnswers() (map[int32]uint64, error) {
	on := p.rec.on
	p.rec.on = false
	defer func() { p.rec.on = on }()
	out := map[int32]uint64{}
	for _, q := range p.r.finalSet() {
		t, err := query.Parse(p.g.Labels.Extend(), p.r.in.queries[q])
		if err != nil {
			return nil, err
		}
		c := t.Canonical()
		ct, err := query.Parse(p.g.Labels.Extend(), c)
		if err != nil {
			return nil, err
		}
		mj, err := p.enumerate(ct, c, -1)
		if err != nil {
			return nil, err
		}
		out[q] = referenceHash(mj)
	}
	return out, nil
}

// replayRead replays a read workload. workers are read-dist's worker
// processes, which an in-process coordinator drives.
func (r *run) replayRead(on bool, workers []*proc) (*replayer, time.Duration, error) {
	size := deepCache
	if r.workload == "read-hot" {
		size = cacheEntries
	}
	p := &replayer{r: r, rec: newRecorder(on), cache: lru.New[[]server.MatchJSON](size)}
	if r.workload == "read-hot" {
		g, err := graph.Decode(bytes.NewReader(r.in.graphText))
		if err != nil {
			return nil, 0, err
		}
		s := p.rec.begin("closure.build", -1, -1)
		c := closure.Compute(g, closure.Options{})
		p.st = store.New(c, 0)
		p.rec.end(s)
		p.g = g
	} else {
		s := p.rec.begin("closure.snapshot_open", -1, -1)
		snap, err := closure.OpenSnapshotFile(r.snapPath, closure.SnapMMap)
		if err != nil {
			return nil, 0, err
		}
		p.st = store.NewFromConfig(snap, store.Config{Columnar: snap.Version() >= 2})
		p.rec.end(s)
		defer snap.Close()
		p.g = snap.Graph()
		if p.sdb, err = shard.New(p.st, 2, shard.Hash{}); err != nil {
			return nil, 0, err
		}
	}
	if workers != nil {
		var err error
		if p.cdb, err = ktpm.OpenSnapshot(r.snapPath, ktpm.SnapshotOptions{Mode: ktpm.SnapshotMMap}); err != nil {
			return nil, 0, err
		}
		defer p.cdb.Close()
		var eps [][]remote.Endpoint
		for _, w := range workers {
			eps = append(eps, []remote.Endpoint{remote.NewHTTPEndpoint(w.addr)})
		}
		if p.coord, err = remote.NewCoordinator(p.cdb, "hash", eps, remote.Config{}); err != nil {
			return nil, 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = p.coord.CheckTopology(ctx)
		cancel()
		if err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	n := replayOps[r.workload]
	if r.smoke {
		n /= 10
	}
	for i := 1; i <= n; i++ {
		if err := p.read(r.in.op(i), int32(i)); err != nil {
			return nil, 0, err
		}
	}
	elapsed := time.Since(t0)
	var err error
	if p.final, err = p.finalAnswers(); err != nil {
		return nil, 0, err
	}
	if on && p.sdb != nil {
		// The scatter-gather hides its per-shard enumerators; measure the
		// useful share of created nodes on the unsharded enumerator over
		// the same store.
		for _, t := range p.missed {
			e := lazy.New(p.st, t, lazy.Options{})
			lazy.DrainTopK(e, r.in.k)
			cs := e.ComputeStats()
			p.created += int64(cs.CreatedNodes)
			p.active += int64(cs.ActiveNodes)
		}
	}
	return p, elapsed, nil
}

// encodeRecord is Live's WAL record for one batch: a uint32 edge count,
// then (from, to, weight) int32 triples, little-endian.
func encodeRecord(edges []graph.Edge) []byte {
	buf := make([]byte, 4+12*len(edges))
	binary.LittleEndian.PutUint32(buf, uint32(len(edges)))
	for i, e := range edges {
		off := 4 + 12*i
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.From))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(e.To))
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(e.Weight))
	}
	return buf
}

// mixStep is the replayed write path's state after one ingest, which
// checkLive compares with ktpm.Live's.
type mixStep struct {
	entries, tables int   // overlay closure entries and tables touched
	walBytes        int64 // bytes the WAL append added
	compacted       bool  // the overlay crossed the threshold
}

// mixSnapMode is write-mix's -snapshot-mode. Eager loading makes set-up
// read the whole snapshot, so setup_s is tens of ms of work that scales
// with the closure, not only a process start.
const mixSnapMode = closure.SnapEager

// mixState is the write path Live keeps: base source, combined graph,
// overlay and WAL.
type mixState struct {
	dir      string
	log      *wal.Log
	base     closure.TableSource
	snaps    []*closure.Snapshot
	delta    *closure.Delta
	gen      int
	genFile  string
	columnar bool
}

// publish builds the serving store for base + overlay, as
// Live.publishLocked does.
func (p *replayer) publish(m *mixState, parent, op int32) {
	var src closure.TableSource = m.base
	columnar := m.columnar
	if m.delta.Entries() > 0 {
		s := p.rec.begin("closure.merged_source", parent, op)
		src = closure.NewMergedSource(p.g, m.base, m.delta)
		p.rec.end(s)
		columnar = false
		p.deltaEntries = append(p.deltaEntries, float64(m.delta.Entries()))
		p.mergedTables = append(p.mergedTables, float64(m.delta.TablesTouched()))
	}
	s := p.rec.begin("store.publish", parent, op)
	p.st = store.NewFromConfig(src, store.Config{Columnar: columnar})
	p.rec.end(s)
	p.epoch++
}

// ingest replays Live.Ingest for one single-edge batch.
func (p *replayer) ingest(m *mixState, e ktpm.IngestEdge, op int32) error {
	ing := p.rec.begin("ktpm.ingest", -1, op)
	n := int32(p.g.NumNodes())
	if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n || e.From == e.To || e.Weight < 0 {
		return fmt.Errorf("invalid stream edge %+v", e)
	}
	ge := []graph.Edge{{From: e.From, To: e.To, Weight: e.Weight}}
	s := p.rec.begin("closure.combine_graph", ing, op)
	g2, err := closure.CombineGraph(p.g, ge)
	p.rec.end(s)
	if err != nil {
		return err
	}
	b0 := m.log.Stats().Bytes
	s = p.rec.begin("wal.append", ing, op)
	_, err = m.log.Append(encodeRecord(ge))
	p.rec.end(s)
	if err != nil {
		return err
	}
	walBytes := m.log.Stats().Bytes - b0
	p.walBytes += walBytes
	p.g = g2
	s = p.rec.begin("closure.delta_add", ing, op)
	m.delta.AddEdges(g2, ge)
	p.rec.end(s)
	p.publish(m, ing, op)
	p.rec.end(ing)
	st := mixStep{m.delta.Entries(), m.delta.TablesTouched(), walBytes, m.delta.Entries() >= mixCompactAt}
	p.steps = append(p.steps, st)
	if st.compacted {
		return p.compact(m, op)
	}
	return nil
}

// checkLive drives ktpm.Live in-process over the same snapshot and edge
// stream, compacting synchronously after the ingests where the replay
// did, and fails the run where Live and the replay's copy of its write
// sequence disagree: overlay entries and tables after each ingest, WAL
// bytes per append, publishes and compactions. The replay copies
// Live.Ingest and Live.compact so that it can span their steps; this
// check fails once Live changes and the copy no longer follows it. The
// server's own compaction count is not compared: it compacts in the
// background, so how many ingests one compaction absorbs depends on
// timing.
func (r *run) checkLive(p *replayer) error {
	dir := filepath.Join(r.dir, "live-check")
	defer os.RemoveAll(dir)
	mode := ktpm.SnapshotMode(mixSnapMode)
	db, err := ktpm.OpenSnapshot(r.snapPath, ktpm.SnapshotOptions{Mode: mode})
	if err != nil {
		return err
	}
	live, err := ktpm.OpenLive(db, ktpm.LiveConfig{Dir: dir, Fsync: "always", CompactThreshold: -1,
		SnapshotFormat: ktpm.SnapshotV2, SnapshotMode: mode})
	if err != nil {
		db.Close()
		return err
	}
	defer live.Close() // closes db's snapshot too
	epoch0, compactions := live.Epoch(), 0
	for i, e := range r.in.edges {
		b0 := live.IngestStats().WAL.Bytes
		if _, err := live.Ingest([]ktpm.IngestEdge{e}); err != nil {
			return err
		}
		st, want := live.IngestStats(), p.steps[i]
		if got := (mixStep{st.Overlay.Entries, st.Overlay.Tables, st.WAL.Bytes - b0, st.Overlay.Entries >= mixCompactAt}); got != want {
			r.fail("ingest %d: ktpm.Live's write path %+v differs from the replay's %+v", i, got, want)
			return nil // every later step would differ too
		}
		if want.compacted {
			if err := live.Compact(); err != nil {
				return err
			}
			compactions++
		}
	}
	if got, want := live.IngestStats().Compaction.Count, uint64(compactions); got != want {
		r.fail("ktpm.Live compacted %d times, the replay %d", got, want)
	}
	// The replay's first publish is the base's, before the stream.
	if got, want := live.Epoch()-epoch0, uint64(p.epoch-1); got != want {
		r.fail("ktpm.Live published %d epochs over the stream, the replay %d", got, want)
	}
	return nil
}

// compact replays Live.compact synchronously: write a generation, open
// it, reset the overlay, record CURRENT, publish and truncate the WAL.
func (p *replayer) compact(m *mixState, op int32) error {
	cs := p.rec.begin("ktpm.compact", -1, op)
	defer p.rec.end(cs)
	w := m.log.NextLSN() - 1
	m.gen++
	name := fmt.Sprintf("gen-%08d.snap", m.gen)
	path := filepath.Join(m.dir, name)
	src := p.st.Source()
	s := p.rec.begin("closure.snapshot_write", cs, op)
	err := fsio.WriteFileAtomic(path, func(out io.Writer) error { return closure.WriteSnapshotV2(out, src) })
	p.rec.end(s)
	if err != nil {
		return err
	}
	s = p.rec.begin("closure.generation_open", cs, op)
	snap, err := closure.OpenSnapshotFile(path, mixSnapMode)
	p.rec.end(s)
	if err != nil {
		return err
	}
	m.snaps = append(m.snaps, snap)
	m.base, m.delta, m.columnar = snap, closure.NewDelta(), true
	p.g = snap.Graph()
	if err := fsio.WriteFileAtomic(filepath.Join(m.dir, "CURRENT"), func(out io.Writer) error {
		_, err := fmt.Fprintf(out, "%s %d\n", name, w)
		return err
	}); err != nil {
		return err
	}
	p.publish(m, cs, op)
	s = p.rec.begin("wal.truncate", cs, op)
	err = m.log.TruncateBefore(w + 1)
	p.rec.end(s)
	if m.genFile != "" {
		os.Remove(filepath.Join(m.dir, m.genFile))
	}
	m.genFile = name
	return err
}

// replayMix replays write-mix: the whole edge stream through the write
// layers, with the reader's queries interleaved at the HTTP run's
// reads-per-edge ratio.
func (r *run) replayMix(on bool) (*replayer, time.Duration, error) {
	p := &replayer{r: r, rec: newRecorder(on), cache: lru.New[[]server.MatchJSON](cacheEntries)}
	dir := filepath.Join(r.dir, fmt.Sprintf("replay-%v", on))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	s := p.rec.begin("closure.snapshot_open", -1, -1)
	snap, err := closure.OpenSnapshotFile(r.snapPath, mixSnapMode)
	p.rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	m := &mixState{dir: dir, base: snap, snaps: []*closure.Snapshot{snap}, delta: closure.NewDelta(), columnar: snap.Version() >= 2}
	defer func() {
		for _, sn := range m.snaps {
			sn.Close()
		}
	}()
	p.g = snap.Graph()
	p.publish(m, -1, -1)
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return nil, 0, err
	}
	if m.log, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.FsyncAlways}); err != nil {
		return nil, 0, err
	}
	defer m.log.Close()
	perEdge := int(mixRate / mixEdgesPerSec)
	op := 1
	t0 := time.Now()
	for i, e := range r.in.edges {
		if err := p.ingest(m, e, int32(-2-i)); err != nil {
			return nil, 0, err
		}
		for j := 0; j < perEdge; j++ {
			if err := p.read(r.in.op(op), int32(op)); err != nil {
				return nil, 0, err
			}
			op++
		}
	}
	elapsed := time.Since(t0)
	if p.final, err = p.finalAnswers(); err != nil {
		return nil, 0, err
	}
	return p, elapsed, nil
}

// obsOverhead is the per-request cost of the observability middleware:
// server.Server.ServeHTTP time with DisableObs false minus true, over
// the read-hot mix, in alternating rounds.
func (r *run) obsOverhead() float64 {
	const rounds, per = 7, 3000
	srv := func(disable bool) *server.Server {
		return server.New(r.ref, server.Config{Concurrency: 2, DisableObs: disable, TraceRing: -1})
	}
	on, off := srv(false), srv(true)
	defer on.Close()
	defer off.Close()
	reqs := make([]*http.Request, per)
	for i := range reqs {
		q := r.in.op(i + 1)
		reqs[i] = httptest.NewRequest(http.MethodGet, "/query?q="+r.in.escaped[q]+"&k="+fmt.Sprint(r.in.k), nil)
	}
	pass := func(s *server.Server) time.Duration {
		t0 := time.Now()
		for _, req := range reqs {
			s.ServeHTTP(httptest.NewRecorder(), req)
		}
		return time.Since(t0)
	}
	pass(on) // fill both caches
	pass(off)
	var diffs []float64
	for i := 0; i < rounds; i++ {
		a, b := pass(on), pass(off)
		diffs = append(diffs, float64((a-b).Nanoseconds())/per/1e3)
	}
	return median(diffs)
}

// replayAll runs the traced replay with spans off and on, derives the
// per-layer metrics from the traced one, and checks its final answers
// against the HTTP run's.
func (r *run) replayAll(workers []*proc, httpFinal map[int32]uint64) error {
	replay := func(on bool) (*replayer, time.Duration, error) {
		if r.workload == "write-mix" {
			return r.replayMix(on)
		}
		return r.replayRead(on, workers)
	}
	// Spans off, on, off: the traced replay is compared with the mean of
	// the untraced ones around it, so warm-up and drift cancel.
	_, off1, err := replay(false)
	if err != nil {
		return err
	}
	p, onWall, err := replay(true)
	if err != nil {
		return err
	}
	_, off2, err := replay(false)
	if err != nil {
		return err
	}
	offWall := (off1 + off2) / 2
	for q, h := range httpFinal {
		if p.final[q] != h {
			r.fail("replay's final answer to query %d differs from the HTTP run's", q)
		}
	}
	r.set("replay.trace_overhead_frac", (onWall.Seconds()-offWall.Seconds())/offWall.Seconds())
	r.layerMetrics(p)
	if r.workload == "write-mix" {
		if err := r.checkLive(p); err != nil {
			return err
		}
	}
	if r.workload == "read-hot" {
		r.set("obs.overhead_us", r.obsOverhead())
	}
	return nil
}

// layerMetrics turns the traced replay's spans and counters into the
// per-layer metrics.
func (r *run) layerMetrics(p *replayer) {
	lt := selfTimes(p.rec.spans)
	meanNS := func(name string) (float64, bool) {
		l := lt[name]
		if l == nil || l.count == 0 {
			return 0, false
		}
		return float64(l.totalNS) / float64(l.count), true
	}
	setMean := func(metric, span string, scale float64) {
		if v, ok := meanNS(span); ok {
			r.set(metric, v/scale)
		}
	}
	setMean("query.parse_us", "query.parse", 1e3)
	setMean("query.canonical_us", "query.canonical", 1e3)
	setMean("server.encode_us", "server.encode", 1e3)
	if len(p.respBytes) > 0 {
		r.set("server.resp_bytes", mean(p.respBytes))
	}
	if p.enumerated > 0 {
		n := float64(p.enumerated)
		if l := lt["lazy.enumerate"]; l != nil {
			r.set("lazy.enumerate_ms", float64(l.totalNS)/n/1e6)
			r.set("lazy.us_per_match", float64(l.totalNS)/1e3/float64(p.matches))
		}
		r.set("store.tables_read", float64(p.tablesRead)/n)
		r.set("store.blocks_read", float64(p.blocksRead)/n)
		r.set("store.entries_per_match", float64(p.ent)/float64(p.matches))
		if p.created > 0 {
			r.set("lazy.active_frac", float64(p.active)/float64(p.created))
		}
	}
	setMean("closure.build_ms", "closure.build", 1e6)
	setMean("closure.snapshot_open_ms", "closure.snapshot_open", 1e6)
	r.set("closure.tables_loaded", float64(p.st.TablesLoaded()))
	if l := lt["shard.topk"]; l != nil && l.count > 0 {
		r.set("shard.gather_ms", float64(l.totalNS)/float64(l.count)/1e6)
		r.set("shard.merge_self_ms", float64(l.selfNS)/float64(l.count)/1e6)
		r.set("shard.merged", float64(p.merged)/float64(l.count))
	}
	if v, ok := meanNS("remote.topk"); ok {
		r.set("remote.topk_ms", v/1e6)
		if g, ok := meanNS("shard.topk"); ok {
			r.set("remote.overhead_ms", (v-g)/1e6)
		}
	}
	if r.workload != "write-mix" {
		return
	}
	setMean("closure.combine_graph_ms", "closure.combine_graph", 1e6)
	setMean("closure.delta_add_ms", "closure.delta_add", 1e6)
	setMean("closure.merged_source_ms", "closure.merged_source", 1e6)
	setMean("closure.snapshot_write_ms", "closure.snapshot_write", 1e6)
	setMean("store.publish_ms", "store.publish", 1e6)
	setMean("wal.append_us", "wal.append", 1e3)
	setMean("ktpm.ingest_ms", "ktpm.ingest", 1e6)
	setMean("ktpm.compact_ms", "ktpm.compact", 1e6)
	if l := lt["ktpm.ingest"]; l != nil {
		r.set("ktpm.ingest_self_ms", float64(l.selfNS)/float64(l.count)/1e6)
		if ms := lt["closure.merged_source"]; ms != nil {
			// Compaction publishes with an empty overlay, so every
			// merged_source span is a child of an ingest.
			r.set("closure.merged_source_share", float64(ms.totalNS)/float64(l.totalNS))
		}
	}
	r.set("closure.delta_entries", mean(p.deltaEntries))
	r.set("closure.merged_tables", mean(p.mergedTables))
	r.set("wal.bytes_per_edge", float64(p.walBytes)/float64(len(r.in.edges)))
}
