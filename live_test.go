package ktpm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ktpm/internal/closure"
)

// liveBase generates a reproducible base graph as raw parts, so tests
// can rebuild the "never ingested" reference database from base plus
// any ingested edge set.
func liveBase(rng *rand.Rand, n int) (labels []string, edges []IngestEdge) {
	names := []string{"a", "b", "c", "d", "e"}
	labels = make([]string, n)
	for i := range labels {
		labels[i] = names[rng.Intn(len(names))]
	}
	for i := 1; i < n; i++ {
		for e := 0; e < 2; e++ {
			edges = append(edges, IngestEdge{From: int32(rng.Intn(i)), To: int32(i), Weight: int32(1 + rng.Intn(3))})
		}
	}
	return labels, edges
}

func liveNewEdges(rng *rand.Rand, n, count int) []IngestEdge {
	var out []IngestEdge
	for len(out) < count {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		out = append(out, IngestEdge{From: u, To: v, Weight: int32(1 + rng.Intn(3))})
	}
	return out
}

func buildLiveDB(t testing.TB, labels []string, edges []IngestEdge) *Database {
	t.Helper()
	gb := NewGraphBuilder()
	for _, l := range labels {
		gb.AddNode(l)
	}
	for _, e := range edges {
		gb.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var liveQueries = []string{"a(b)", "a(b,c(d))", "a(*,c)", "a(/b)", "c(d,e)", "e"}

// assertLiveMatchesReference checks that the live backend answers every
// query byte-identically to a from-scratch BuildDatabase over the same
// combined edge set — unsharded and at shard counts {1, 2, 4}.
func assertLiveMatchesReference(t *testing.T, tag string, live *Live, ref *Database) {
	t.Helper()
	cur, release := live.Acquire()
	defer release()
	sharded := make(map[int]*ShardedDatabase)
	for _, n := range []int{1, 2, 4} {
		sh, err := cur.Shard(n, PartitionByLabel())
		if err != nil {
			t.Fatalf("%s: shard %d: %v", tag, n, err)
		}
		sharded[n] = sh
	}
	for _, qs := range liveQueries {
		rq, err := ref.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		lq, err := live.ParseQuery(qs)
		if err != nil {
			t.Fatalf("%s: live parse %q: %v", tag, qs, err)
		}
		for _, k := range []int{1, 7, 5000} {
			want, err := ref.TopK(rq, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := live.TopKWith(lq, k, Options{})
			if err != nil {
				t.Fatalf("%s: live %q k=%d: %v", tag, qs, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: query %q k=%d: live result differs from from-scratch rebuild\n got %v\nwant %v", tag, qs, k, got, want)
			}
			for n, sh := range sharded {
				gotSh, err := sh.TopK(lq, k)
				if err != nil {
					t.Fatalf("%s: shards=%d %q k=%d: %v", tag, n, qs, k, err)
				}
				if !reflect.DeepEqual(gotSh, want) {
					t.Fatalf("%s: shards=%d query %q k=%d: sharded live result differs", tag, n, qs, k)
				}
			}
		}
	}
}

// TestLiveMatchesRebuild is the write-path result-identity property:
// after every ingest batch, and both before and after compaction, the
// overlay-merged serving state must answer byte-identically to a
// from-scratch BuildDatabase over base+delta edges — across generation
// backing modes and shard counts {1, 2, 4}. Subtests are named by
// configuration and mode: "v1" is the zero LiveConfig.SnapshotFormat,
// which wrote KTPMSNAP1 generations before that format was retired, and
// "v2" sets the deprecated SnapshotV2. Both must now write KTPMSNAP2
// generations.
func TestLiveMatchesRebuild(t *testing.T) {
	configs := []struct {
		name   string
		format SnapshotFormat
	}{{"v1", 0}, {"v2", SnapshotV2}}
	for _, cfg := range configs {
		for _, mode := range allSnapshotModes {
			t.Run(fmt.Sprintf("%s/%v", cfg.name, mode), func(t *testing.T) {
				dir := t.TempDir()
				rng := rand.New(rand.NewSource(91))
				labels, baseEdges := liveBase(rng, 60)
				boot := buildLiveDB(t, labels, baseEdges)
				live, err := OpenLive(boot, LiveConfig{
					Dir:              dir,
					Fsync:            "never", // durability is exercised elsewhere; keep the property loop fast
					CompactThreshold: -1,      // compaction is driven explicitly below
					SnapshotFormat:   cfg.format,
					SnapshotMode:     mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer live.Close()

				all := append([]IngestEdge(nil), baseEdges...)
				epoch := live.Epoch()
				for batch := 0; batch < 3; batch++ {
					edges := liveNewEdges(rng, 60, 6+rng.Intn(5))
					if _, err := live.Ingest(edges); err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					if e := live.Epoch(); e <= epoch {
						t.Fatalf("batch %d: epoch did not advance (%d -> %d)", batch, epoch, e)
					} else {
						epoch = e
					}
					all = append(all, edges...)
					ref := buildLiveDB(t, labels, all)
					assertLiveMatchesReference(t, fmt.Sprintf("batch %d (pre-compaction)", batch), live, ref)
				}

				if err := live.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
				st := live.IngestStats()
				if st.Compaction.Count != 1 || st.Overlay.Entries != 0 || st.Compaction.Generation != 1 {
					t.Fatalf("post-compaction stats: %+v", st)
				}
				if st.Overlay.Watermark != st.LastLSN {
					t.Fatalf("watermark %d != last lsn %d after compaction", st.Overlay.Watermark, st.LastLSN)
				}
				assertGenerationV2(t, dir)
				ref := buildLiveDB(t, labels, all)
				assertLiveMatchesReference(t, "post-compaction", live, ref)

				// Ingest on top of the compacted generation: the merged
				// source now overlays a reopened snapshot base.
				edges := liveNewEdges(rng, 60, 8)
				if _, err := live.Ingest(edges); err != nil {
					t.Fatal(err)
				}
				all = append(all, edges...)
				ref = buildLiveDB(t, labels, all)
				assertLiveMatchesReference(t, "post-compaction ingest", live, ref)
			})
		}
	}
}

// assertGenerationV2 requires the generation CURRENT names in dir to be
// a KTPMSNAP2 file.
func assertGenerationV2(t *testing.T, dir string) {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(cur))
	if len(fields) == 0 {
		t.Fatalf("empty CURRENT %q", cur)
	}
	f, err := os.Open(filepath.Join(dir, fields[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	magic := make([]byte, 10)
	if _, err := io.ReadFull(f, magic); err != nil {
		t.Fatal(err)
	}
	if string(magic) != "KTPMSNAP2\n" {
		t.Fatalf("generation %s has magic %q, want KTPMSNAP2", fields[0], magic)
	}
}

// TestOpenLiveRejectsV1Generation: when CURRENT names a generation in
// the retired KTPMSNAP1 layout, OpenLive fails with the error naming
// the format and its conversion, and leaves the directory exactly as it
// found it — the generation, a stale one beside it, and the WAL.
func TestOpenLiveRejectsV1Generation(t *testing.T) {
	dir := t.TempDir()
	writeV1Header(t, dir, "gen-00000001.snap")
	writeV1Header(t, dir, "gen-00000000.snap")
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("gen-00000001.snap 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", "wal-0000000000000004.log"), []byte("KTPMWAL1"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		var out []string
		filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				t.Fatal(err)
			}
			info, err := d.Info()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s %d", p, info.Size()))
			return nil
		})
		return out
	}
	before := listing()
	rng := rand.New(rand.NewSource(3))
	labels, edges := liveBase(rng, 20)
	live, err := OpenLive(buildLiveDB(t, labels, edges), LiveConfig{Dir: dir, Fsync: "never", CompactThreshold: -1})
	if err == nil {
		live.Close()
		t.Fatal("OpenLive restored a KTPMSNAP1 generation")
	}
	if !errors.Is(err, closure.ErrRetiredFormat) {
		t.Fatalf("got %v, want closure.ErrRetiredFormat", err)
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed OpenLive changed the directory:\n before %v\n after  %v", before, after)
	}
}

// writeV1Header writes a bare 64-byte KTPMSNAP1 header at dir/name — all
// a reader needs to see to recognize the retired format.
func writeV1Header(t *testing.T, dir, name string) string {
	t.Helper()
	hdr := make([]byte, 64)
	copy(hdr, "KTPMSNAP1\n")
	binary.LittleEndian.PutUint32(hdr[10:14], 1)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLiveRecovery closes and reopens the write path at every stage:
// WAL-only (replay rebuilds the overlay), post-compaction (CURRENT
// restores the generation), and post-compaction-plus-tail. Every
// reopen must serve byte-identically to the never-closed reference.
func TestLiveRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	labels, baseEdges := liveBase(rng, 50)
	dir := t.TempDir()
	cfg := LiveConfig{Dir: dir, Fsync: "always", CompactThreshold: -1, SnapshotMode: SnapshotLazy}

	open := func() *Live {
		t.Helper()
		// A fresh boot database every time, as a real restart would build.
		live, err := OpenLive(buildLiveDB(t, labels, baseEdges), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return live
	}

	live := open()
	all := append([]IngestEdge(nil), baseEdges...)
	var lastLSN uint64
	for batch := 0; batch < 3; batch++ {
		edges := liveNewEdges(rng, 50, 5)
		lsn, err := live.Ingest(edges)
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
		all = append(all, edges...)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL-only recovery: no compaction ever ran, so the overlay must be
	// rebuilt purely from the journal.
	live = open()
	st := live.IngestStats()
	if st.WAL.RecoveredRecords != 3 || st.WAL.LastLSN != lastLSN {
		t.Fatalf("wal-only recovery stats: %+v", st.WAL)
	}
	if st.Overlay.PendingBatches != 3 {
		t.Fatalf("recovered pending batches = %d, want 3", st.Overlay.PendingBatches)
	}
	assertLiveMatchesReference(t, "wal-only recovery", live, buildLiveDB(t, labels, all))

	// Compact, ingest a tail, close: recovery must restore the
	// generation and replay only the tail.
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	watermark := live.IngestStats().Overlay.Watermark
	tail := liveNewEdges(rng, 50, 4)
	if _, err := live.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	all = append(all, tail...)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	live = open()
	defer live.Close()
	st = live.IngestStats()
	if st.Compaction.Generation != 1 {
		t.Fatalf("recovered generation = %d, want 1", st.Compaction.Generation)
	}
	if st.Overlay.Watermark != watermark {
		t.Fatalf("recovered watermark = %d, want %d", st.Overlay.Watermark, watermark)
	}
	if st.Overlay.PendingBatches != 1 {
		t.Fatalf("recovered pending batches = %d, want 1 (only the post-compaction tail)", st.Overlay.PendingBatches)
	}
	assertLiveMatchesReference(t, "generation+tail recovery", live, buildLiveDB(t, labels, all))

	// Compacting the recovered tail and recovering once more exercises
	// generation N -> N+1 supersession.
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	live = open()
	defer live.Close()
	st = live.IngestStats()
	if st.Compaction.Generation != 2 || st.Overlay.PendingBatches != 0 {
		t.Fatalf("second recovery stats: %+v", st)
	}
	if st.WAL.RecoveredRecords != 0 {
		t.Fatalf("wal should be empty after compaction, recovered %d records", st.WAL.RecoveredRecords)
	}
	assertLiveMatchesReference(t, "second generation recovery", live, buildLiveDB(t, labels, all))
}

func TestLiveIngestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels, baseEdges := liveBase(rng, 20)
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{Dir: t.TempDir(), Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	for name, batch := range map[string][]IngestEdge{
		"empty batch":  {},
		"unknown node": {{From: 0, To: 99, Weight: 1}},
		"negative id":  {{From: -1, To: 2, Weight: 1}},
		"self loop":    {{From: 3, To: 3, Weight: 1}},
		"negative w":   {{From: 0, To: 1, Weight: -2}},
	} {
		if _, err := live.Ingest(batch); !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("%s: err = %v, want ErrInvalidEdge", name, err)
		}
	}
	st := live.IngestStats()
	if st.RejectedBatches != 5 || st.AckedBatches != 0 || st.WAL.LastLSN != 0 {
		t.Fatalf("rejected batches must not touch the WAL: %+v", st)
	}

	// Weight 0 means unit weight and is accepted.
	if _, err := live.Ingest([]IngestEdge{{From: 0, To: 5}}); err != nil {
		t.Fatalf("unit-weight ingest: %v", err)
	}

	// MaxDistance-truncated bases are rejected up front.
	g, _ := func() (*Graph, error) {
		gb := NewGraphBuilder()
		gb.AddNode("a")
		gb.AddNode("b")
		gb.AddEdge(0, 1)
		return gb.Build()
	}()
	trunc, err := BuildDatabase(g, DatabaseOptions{MaxDistance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLive(trunc, LiveConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("OpenLive accepted a MaxDistance-truncated database")
	}
}

// TestLiveConcurrentQueryIngest runs every pinning read — TopKWith,
// TopKBatch, Explain and streams — against the live backend while
// batches land and compactions swap mmap generations underneath them:
// the atomic-publish and pin invariants under -race. Ingest only adds
// edges, so the match count a reader sees for one query never shrinks;
// a read served from a closed generation sees empty tables and would
// break that (or fault on the unmapped file).
func TestLiveConcurrentQueryIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	labels, baseEdges := liveBase(rng, 60)
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{
		Dir: t.TempDir(), Fsync: "never", CompactThreshold: 200, SnapshotMode: SnapshotMMap,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := make(map[string]int64) // read kind + query -> last count
			grew := func(key string, n int64) bool {
				if n < seen[key] {
					t.Errorf("reader %d: %s fell from %d to %d", w, key, seen[key], n)
					return false
				}
				seen[key] = n
				return true
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qs := liveQueries[(w+i)%len(liveQueries)]
				q, err := live.ParseQuery(qs)
				if err != nil {
					t.Errorf("parse %q: %v", qs, err)
					return
				}
				switch i % 4 {
				case 0:
					ms, err := live.TopKWith(q, 5000, Options{})
					if err != nil {
						t.Errorf("query %q: %v", qs, err)
						return
					}
					if !grew("topk "+qs, int64(len(ms))) {
						return
					}
				case 1:
					res := live.TopKBatch([]BatchItem{{Query: q, K: 5000}})
					if res[0].Err != nil {
						t.Errorf("batch %q: %v", qs, res[0].Err)
						return
					}
					if !grew("batch "+qs, int64(len(res[0].Matches))) {
						return
					}
				case 2:
					p, err := live.Explain(q)
					if err != nil {
						t.Errorf("explain %q: %v", qs, err)
						return
					}
					if !grew("explain "+qs, p.TotalMatches) {
						return
					}
				case 3:
					st, err := live.OpenStream(q, Options{})
					if err != nil {
						t.Errorf("stream %q: %v", qs, err)
						return
					}
					n := int64(0)
					for ; n < 5000; n++ {
						if _, ok := st.Next(); !ok {
							break
						}
					}
					st.Close()
					if !grew("stream "+qs, n) {
						return
					}
				}
			}
		}(w)
	}

	all := append([]IngestEdge(nil), baseEdges...)
	for batch := 0; batch < 12; batch++ {
		edges := liveNewEdges(rng, 60, 6)
		if _, err := live.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		all = append(all, edges...)
		if batch%3 == 2 {
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Drain whatever is left, deterministically. Compact is a no-op while
	// a background compaction runs, so repeat until the overlay is empty
	// and no compaction (which holds a pin of its own) is in flight.
	for st := live.IngestStats(); st.Overlay.Entries > 0 || st.Compaction.InProgress; st = live.IngestStats() {
		if err := live.Compact(); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	assertLiveMatchesReference(t, "after concurrent traffic", live, buildLiveDB(t, labels, all))
	if n := live.IngestStats().Compaction.GenerationsOpen; n != 1 {
		t.Fatalf("generations open after readers stopped = %d, want 1", n)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if n := live.IngestStats().Compaction.GenerationsOpen; n != 0 {
		t.Fatalf("generations open after Close = %d, want 0", n)
	}
}

// snapHandles counts the open file descriptors and memory mappings of
// .snap files under dir held by this process, from /proc/self. ok is
// false off Linux.
func snapHandles(t *testing.T, dir string) (fds, maps int, ok bool) {
	t.Helper()
	if runtime.GOOS != "linux" {
		return 0, 0, false
	}
	isSnap := func(p string) bool {
		return strings.HasPrefix(p, dir) && strings.Contains(p, ".snap")
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && isSnap(target) {
			fds++
		}
	}
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		// The path is the sixth field; it may carry a " (deleted)" tail.
		if f := strings.Fields(line); len(f) >= 6 && isSnap(strings.Join(f[5:], " ")) {
			maps++
		}
	}
	return fds, maps, true
}

// openLiveOverSnapshot writes the base as a snapshot, opens it in
// mode, and hands it to OpenLive, so the boot base is itself a
// generation Live must release.
func openLiveOverSnapshot(t *testing.T, dir string, mode SnapshotMode, labels []string, edges []IngestEdge) *Live {
	t.Helper()
	path := filepath.Join(dir, "boot.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(f, buildLiveDB(t, labels, edges)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := OpenSnapshot(path, SnapshotOptions{Mode: mode, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(db, LiveConfig{
		Dir: filepath.Join(dir, "wal"), Fsync: "never", CompactThreshold: -1,
		SnapshotMode: mode,
	})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	return live
}

// TestLiveGenerationsClose: compaction closes every superseded
// generation, the boot snapshot included, in each backing mode — after
// 30 single-edge compactions one generation is open and at most one
// .snap descriptor (lazy) or mapping (mmap) remains.
func TestLiveGenerationsClose(t *testing.T) {
	for _, mode := range allSnapshotModes {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			labels, baseEdges := liveBase(rng, 40)
			dir := t.TempDir()
			live := openLiveOverSnapshot(t, dir, mode, labels, baseEdges)
			defer live.Close()
			for i, e := range liveNewEdges(rng, 40, 30) {
				if _, err := live.Ingest([]IngestEdge{e}); err != nil {
					t.Fatal(err)
				}
				if err := live.Compact(); err != nil {
					t.Fatal(err)
				}
				if got := live.IngestStats().Compaction.Count; got != uint64(i+1) {
					t.Fatalf("compactions = %d after %d ingests", got, i+1)
				}
			}
			if n := live.IngestStats().Compaction.GenerationsOpen; n != 1 {
				t.Fatalf("generations open = %d, want 1", n)
			}
			if fds, maps, ok := snapHandles(t, dir); ok && (fds > 1 || maps > 1) {
				t.Fatalf("after 30 compactions: %d .snap descriptors and %d .snap mappings open, want at most 1 each", fds, maps)
			}
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			if fds, maps, ok := snapHandles(t, dir); ok && fds+maps != 0 {
				t.Fatalf("after Close: %d .snap descriptors and %d .snap mappings open", fds, maps)
			}
		})
	}
}

// TestLivePinnedGenerationOutlivesCompaction holds a stream and an
// Acquire on one mmap generation across three compactions: both keep
// answering byte-identically to that epoch's from-scratch rebuild, and
// the generation is unmapped only once both are released.
func TestLivePinnedGenerationOutlivesCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	labels, baseEdges := liveBase(rng, 50)
	dir := t.TempDir()
	live := openLiveOverSnapshot(t, dir, SnapshotMMap, labels, baseEdges)
	defer live.Close()

	all := append([]IngestEdge(nil), baseEdges...)
	ingest := func(n int) {
		t.Helper()
		edges := liveNewEdges(rng, 50, n)
		if _, err := live.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		all = append(all, edges...)
	}
	// Pin the epoch published by the first compaction: no overlay, so
	// every table its reads carve comes off generation 1's mapping.
	ingest(5)
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	pinnedFile := live.IngestStats().Compaction.GenerationFile
	ref := buildLiveDB(t, labels, all)

	const qs = "a(b,c(d))"
	q, err := live.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := live.OpenStream(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, release := live.Acquire()
	released := false
	defer func() {
		if !released {
			release()
		}
	}()

	// Nothing is read before the swaps, so every table the pinned reads
	// need is faulted from generation 1 after it stopped being current.
	for i := 0; i < 3; i++ {
		ingest(2)
		if err := live.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	mapped := func() bool {
		raw, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(string(raw), filepath.Join(dir, "wal", pinnedFile))
	}
	linux := runtime.GOOS == "linux"
	if n := live.IngestStats().Compaction.GenerationsOpen; n != 2 {
		t.Fatalf("generations open with a pinned epoch = %d, want 2", n)
	}
	if linux && !mapped() {
		t.Fatalf("pinned generation %s was unmapped under its readers", pinnedFile)
	}

	var got []Match
	for {
		m, ok := st.Next()
		if !ok {
			break
		}
		got = append(got, m)
	}
	rs := ref.Stream(mustParse(t, ref, qs))
	var want []Match
	for {
		m, ok := rs.Next()
		if !ok {
			break
		}
		want = append(want, m)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned stream: %d matches differ from its epoch's rebuild (%d matches)", len(got), len(want))
	}
	// The drained stream released its pin; the Acquire still holds one.
	if n := live.IngestStats().Compaction.GenerationsOpen; n != 2 {
		t.Fatalf("generations open with only the Acquire pin = %d, want 2", n)
	}
	// AlgoTopk builds its run-time graph straight from the closure
	// tables, which under mmap are views into the generation's mapping.
	// Only Topk-EN fixes the order within a tie, so compare scores.
	scores := func(ms []Match) []int64 {
		out := make([]int64, len(ms))
		for i, m := range ms {
			out[i] = m.Score
		}
		return out
	}
	for _, qs := range liveQueries {
		for _, algo := range []Algorithm{AlgoTopkEN, AlgoTopk} {
			gotK, err := db.TopKWith(mustParse(t, db, qs), 5000, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			wantK, err := ref.TopKWith(mustParse(t, ref, qs), 5000, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scores(gotK), scores(wantK)) || (algo == AlgoTopkEN && !reflect.DeepEqual(gotK, wantK)) {
				t.Fatalf("pinned Acquire %v %q differs from its epoch's rebuild", algo, qs)
			}
		}
	}
	release()
	released = true
	if n := live.IngestStats().Compaction.GenerationsOpen; n != 1 {
		t.Fatalf("generations open after both pins released = %d, want 1", n)
	}
	if linux && mapped() {
		t.Fatalf("generation %s still mapped after its last pin was released", pinnedFile)
	}
}

func mustParse(t *testing.T, db *Database, s string) *Query {
	t.Helper()
	q, err := db.ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
