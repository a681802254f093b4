package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ktpm"
)

// newLiveTestServer wraps the Figure 1 fixture in the live (writable)
// engine and serves it, so /ingest has a real WAL-backed path to hit.
func newLiveTestServer(t testing.TB, cfg Config) (*Server, *ktpm.Live) {
	t.Helper()
	db := testDatabase(t)
	live, err := ktpm.OpenLive(db, ktpm.LiveConfig{Dir: t.TempDir(), Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	s := New(live, cfg)
	t.Cleanup(s.Close)
	return s, live
}

func postIngest(t testing.TB, s *Server, body string) (*httptest.ResponseRecorder, IngestResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var ir IngestResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatalf("POST /ingest: bad body %q: %v", rec.Body.String(), err)
		}
	}
	return rec, ir
}

// TestIngestEndToEnd writes an edge through the HTTP surface and checks
// the ack carries the LSN, the epoch advanced, and — the part the
// epoch-keyed cache exists for — a /query answered and cached before the
// write is re-answered fresh afterwards, matching a from-scratch rebuild
// over base+delta.
func TestIngestEndToEnd(t *testing.T) {
	s, live := newLiveTestServer(t, Config{})

	rec, before := getQuery(t, s, "/query?q=C(E,S)&k=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-ingest query: status %d: %s", rec.Code, rec.Body.String())
	}
	// Second hit caches: proves the stale entry exists when the write lands.
	if rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=10"); rec.Code != http.StatusOK || !qr.Cached {
		t.Fatalf("warm query not cached: status %d cached=%v", rec.Code, qr.Cached)
	}

	epoch0 := live.Epoch()
	// Node 1 is a C with an E child but no S; edge 1->6 (an S) creates
	// new C(E,S) matches.
	rec, ir := postIngest(t, s, `{"edges":[{"from":1,"to":6}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	if ir.LSN != 1 || ir.Edges != 1 {
		t.Fatalf("ingest ack = %+v, want LSN 1, Edges 1", ir)
	}
	if ir.Epoch <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, ir.Epoch)
	}

	rec, after := getQuery(t, s, "/query?q=C(E,S)&k=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-ingest query: status %d: %s", rec.Code, rec.Body.String())
	}
	if after.Cached {
		t.Fatal("post-ingest query served from the pre-ingest cache entry")
	}
	if reflect.DeepEqual(before.Matches, after.Matches) {
		t.Fatal("ingested edge did not change the result set")
	}

	// The served result must equal a from-scratch build over base+delta.
	gb := ktpm.NewGraphBuilder()
	for _, l := range []string{"C", "C", "C", "S", "E", "E", "S"} {
		gb.AddNode(l)
	}
	for _, e := range [][2]int32{{0, 3}, {0, 4}, {1, 5}, {5, 3}, {2, 5}, {2, 6}, {1, 6}} {
		gb.AddEdge(e[0], e[1])
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ref.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d", len(after.Matches), len(want))
	}
	for i := range want {
		if after.Matches[i].Score != want[i].Score {
			t.Errorf("match %d score %d, want %d", i, after.Matches[i].Score, want[i].Score)
		}
	}
}

func TestIngestValidationAndMethod(t *testing.T) {
	s, _ := newLiveTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"self-loop", `{"edges":[{"from":1,"to":1}]}`, http.StatusBadRequest},
		{"out of range", `{"edges":[{"from":1,"to":99}]}`, http.StatusBadRequest},
		{"negative weight", `{"edges":[{"from":1,"to":6,"w":-2}]}`, http.StatusBadRequest},
		{"empty batch", `{"edges":[]}`, http.StatusBadRequest},
		{"bad json", `{"edges":`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec, _ := postIngest(t, s, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/ingest", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", rec.Code)
	}
}

// TestIngestReadOnlyBackend: a plain database (no -wal-dir) answers 501.
func TestIngestReadOnlyBackend(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec, _ := postIngest(t, s, `{"edges":[{"from":1,"to":6}]}`)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("read-only ingest: status %d, want 501: %s", rec.Code, rec.Body.String())
	}
}

func TestIngestDraining(t *testing.T) {
	s, _ := newLiveTestServer(t, Config{})
	s.BeginDrain()
	rec, _ := postIngest(t, s, `{"edges":[{"from":1,"to":6}]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest: status %d, want 503", rec.Code)
	}
}

// TestIngestStatsAndMetrics: the /stats ingest block and the
// ktpmd_wal_* / ktpmd_overlay_* / ktpmd_compaction_* families appear on
// a live backend and reflect the write.
func TestIngestStatsAndMetrics(t *testing.T) {
	s, live := newLiveTestServer(t, Config{})
	if rec, _ := postIngest(t, s, `{"edges":[{"from":1,"to":6}]}`); rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad /stats body: %v", err)
	}
	if st.Ingest == nil {
		t.Fatal("/stats has no ingest block on a live backend")
	}
	if st.Ingest.AckedBatches != 1 || st.Ingest.AckedEdges != 1 || st.Ingest.LastLSN != 1 {
		t.Fatalf("ingest stats = %+v", st.Ingest)
	}
	if st.Ingest.WAL.Appends != 1 || st.Ingest.Overlay.PendingBatches != 1 {
		t.Fatalf("wal/overlay stats = %+v / %+v", st.Ingest.WAL, st.Ingest.Overlay)
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"ktpmd_ingest_batches_total 1",
		"ktpmd_ingest_edges_total 1",
		"ktpmd_ingest_last_lsn 1",
		"ktpmd_wal_appends_total 1",
		"ktpmd_wal_segments 1",
		"ktpmd_overlay_pending_batches 1",
		"ktpmd_compaction_total 0",
		`ktpmd_wal_info{fsync="always"} 1`,
		`ktpmd_cost_ewma_seconds{endpoint="ingest"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The boot base is in memory, so no generation is open until a
	// compaction writes one; after it, exactly that one is.
	if st.Ingest.Compaction.GenerationsOpen != 0 || !strings.Contains(body, "ktpmd_generations_open 0\n") {
		t.Errorf("generations open before any compaction: stats %d, want 0 in /stats and /metrics", st.Ingest.Compaction.GenerationsOpen)
	}
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad /stats body: %v", err)
	}
	if st.Ingest.Compaction.GenerationsOpen != 1 {
		t.Errorf("generations_open after one compaction = %d, want 1", st.Ingest.Compaction.GenerationsOpen)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "ktpmd_generations_open 1\n") {
		t.Error("/metrics ktpmd_generations_open is not 1 after one compaction")
	}

	// A read-only backend must not emit the write-path families.
	ro, _ := newTestServer(t, Config{})
	rec = httptest.NewRecorder()
	ro.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), "ktpmd_wal_appends_total") {
		t.Error("read-only /metrics emits ktpmd_wal_* families")
	}
}
