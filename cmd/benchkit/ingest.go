package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"ktpm"
	"ktpm/internal/bench"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// runIngestSweep measures the crash-safe write path end-to-end through
// the public ktpm.Live API: each op ingests one batch of random edges —
// WAL append, fsync per policy, incremental closure over the overlay,
// atomic publish — and the row also times draining the accumulated
// overlay into a compacted generation. fsync=never isolates the compute
// cost of incremental maintenance; fsync=always adds the durability
// floor a production ack pays. ops is the batch count per configuration
// (0 means 5).
func runIngestSweep(ops int) ([]*bench.IngestRow, error) {
	if ops <= 0 {
		ops = 5
	}
	// A deliberately smaller graph than the read-side sweeps: every
	// ingested edge pays a forward and a reverse shortest-path search
	// and one overlay candidate per (reaching, reachable) pair, so the
	// per-edge cost grows with the square of the reachable set. This
	// size keeps the sweep seconds-long while still exercising dense
	// closure tables.
	g := gen.PowerLaw(gen.PowerLawConfig{
		Nodes: 400, AvgOutDegree: 4, Labels: 60,
		Window: 40, Communities: 8, MaxWeight: 8, Seed: 21,
	})
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		return nil, err
	}
	nodes := g.NumNodes()

	var rows []*bench.IngestRow
	for _, fsync := range []string{"never", "always"} {
		for _, batchEdges := range []int{1, 16, 64} {
			pg, err := ktpm.LoadGraph(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return nil, err
			}
			db, err := ktpm.BuildDatabase(pg, ktpm.DatabaseOptions{})
			if err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp("", "ktpm-ingest-sweep-*")
			if err != nil {
				return nil, err
			}
			live, err := ktpm.OpenLive(db, ktpm.LiveConfig{
				Dir:              dir,
				Fsync:            fsync,
				CompactThreshold: -1, // compaction timed explicitly below
			})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			// One deterministic edge stream per configuration, so rows
			// are comparable across policies.
			rng := rand.New(rand.NewSource(99))
			batch := make([]ktpm.IngestEdge, batchEdges)
			t0 := time.Now()
			for op := 0; op < ops; op++ {
				for i := range batch {
					from := int32(rng.Intn(nodes))
					to := int32(rng.Intn(nodes))
					for to == from {
						to = int32(rng.Intn(nodes))
					}
					batch[i] = ktpm.IngestEdge{From: from, To: to, Weight: int32(1 + rng.Intn(8))}
				}
				if _, err := live.Ingest(batch); err != nil {
					live.Close()
					os.RemoveAll(dir)
					return nil, err
				}
			}
			elapsed := time.Since(t0)
			overlay := live.IngestStats().Overlay.Entries
			c0 := time.Now()
			err = live.Compact()
			compactMS := float64(time.Since(c0).Nanoseconds()) / 1e6
			live.Close()
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			rows = append(rows, &bench.IngestRow{
				Name:           fmt.Sprintf("fsync=%s/batch=%d", fsync, batchEdges),
				Fsync:          fsync,
				BatchEdges:     batchEdges,
				Batches:        ops,
				NsPerBatch:     float64(elapsed.Nanoseconds()) / float64(ops),
				EdgesPerSec:    float64(ops*batchEdges) / elapsed.Seconds(),
				CompactMS:      compactMS,
				OverlayEntries: overlay,
			})
		}
	}
	return rows, nil
}
