package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"

	"ktpm"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// heldOutSeed is never used while tuning the benchmark: a claim made on
// the tuning seeds is re-checked on it.
const heldOutSeed = 104729

// Workload shapes. The rates are about half the closed-loop capacity
// measured on a 2-CPU x86-64 container (see README.md).
const (
	cacheEntries = 1024 // ktpmd's default result-cache capacity (read-hot, write-mix)
	// deepCache is the read-deep server's and the read-dist coordinator's
	// -cache: a quarter of the default, so that warming it full takes
	// seconds, not the 20 s 1024 misses take through the coordinator.
	deepCache = 256

	hotQueries = 200 // distinct read-hot queries, zipf-distributed
	hotSize    = 4
	hotK       = 10
	hotZipfS   = 1.1    // hottest query 21% of requests, rarest 0.06% (see README.md)
	hotRate    = 3200.0 // open-loop requests per second

	deepKeyspace = 8 * deepCache // distinct read-deep queries, uniform
	deepMinSize  = 8
	deepMaxSize  = 12
	deepK        = 1000
	deepRate     = 85.0
	distRate     = 32.0

	mixNodes       = 400
	mixQueries     = 64 // distinct write-mix reader queries, uniform; all fit the cache, so a miss is an epoch change
	mixSize        = 4
	mixK           = 10
	mixRate        = 1900.0 // reader requests per second, beside the writer
	mixEdgesPerSec = 10     // stream length per second of --seconds
	mixCompactAt   = 100000 // -compact-threshold, overlay closure entries
)

// inputs is everything a workload sends, derived from one seed.
type inputs struct {
	graphText []byte
	queries   []string // distinct (by canonical form) query strings
	escaped   []string // queries, URL-escaped
	k         int
	ops       []int32 // op i asks queries[ops[i%len(ops)]]
	edges     []ktpm.IngestEdge
	digest    string
}

func (in *inputs) op(i int) int32 { return in.ops[i%len(in.ops)] }

// topKGraph is bench.TopKGraph's power-law shape (n=2000) under a
// workload seed.
func topKGraph(seed int64) *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{
		Nodes: 2000, AvgOutDegree: 5, Labels: 150,
		Window: 50, Communities: 10, MaxWeight: 8, Seed: seed,
	})
}

// ingestGraph is the 400-node graph of benchkit's ingest sweep under a
// workload seed.
func ingestGraph(seed int64) *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{
		Nodes: mixNodes, AvgOutDegree: 4, Labels: 60,
		Window: 40, Communities: 8, MaxWeight: 8, Seed: seed,
	})
}

// distinctQueries draws queries of the given sizes (round-robin) until
// want distinct canonical forms are collected.
func distinctQueries(g *graph.Graph, want int, sizes []int, seed int64) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for round := int64(0); len(out) < want && round < 50; round++ {
		per := (want-len(out))/len(sizes) + 16
		for _, size := range sizes {
			ts, err := gen.QuerySet(g, per, size, true, seed+round*1_000_003+int64(size)*7_919_000)
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				c := t.Canonical()
				if !seen[c] && len(out) < want {
					seen[c] = true
					out = append(out, t.String())
				}
			}
		}
	}
	if len(out) < want {
		return nil, fmt.Errorf("only %d of %d distinct queries", len(out), want)
	}
	return out, nil
}

// makeInputs derives a workload's graph, queries, op sequence and edge
// stream from seed. seconds sizes the write-mix edge stream.
func makeInputs(workload string, seed int64, seconds int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := &inputs{}
	var g *graph.Graph
	var err error
	nops := 1 << 18
	switch workload {
	case "read-hot":
		g = topKGraph(seed)
		in.k = hotK
		in.queries, err = distinctQueries(g, hotQueries, []int{hotSize}, seed)
		z := rand.NewZipf(rng, hotZipfS, 1, hotQueries-1)
		in.ops = make([]int32, nops)
		for i := range in.ops {
			in.ops[i] = int32(z.Uint64())
		}
	case "read-deep", "read-dist":
		g = topKGraph(seed)
		in.k = deepK
		var sizes []int
		for s := deepMinSize; s <= deepMaxSize; s++ {
			sizes = append(sizes, s)
		}
		in.queries, err = distinctQueries(g, deepKeyspace, sizes, seed)
		in.ops = make([]int32, nops)
		for i := range in.ops {
			in.ops[i] = int32(rng.Intn(deepKeyspace))
		}
	case "write-mix":
		g = ingestGraph(seed)
		in.k = mixK
		in.queries, err = distinctQueries(g, mixQueries, []int{mixSize}, seed)
		in.ops = make([]int32, nops)
		for i := range in.ops {
			in.ops[i] = int32(rng.Intn(mixQueries))
		}
		n := g.NumNodes()
		in.edges = make([]ktpm.IngestEdge, mixEdgesPerSec*seconds)
		for i := range in.edges {
			from := int32(rng.Intn(n))
			to := int32(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			in.edges[i] = ktpm.IngestEdge{From: from, To: to, Weight: int32(1 + rng.Intn(8))}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		return nil, err
	}
	in.graphText = buf.Bytes()
	in.escaped = make([]string, len(in.queries))
	for i, q := range in.queries {
		in.escaped[i] = url.QueryEscape(q)
	}
	in.digest = in.computeDigest()
	return in, nil
}

// computeDigest hashes every generated input, so two runs can be shown
// to have sent identical inputs.
func (in *inputs) computeDigest() string {
	h := sha256.New()
	h.Write(in.graphText)
	for _, q := range in.queries {
		h.Write([]byte(q))
		h.Write([]byte{0})
	}
	binary.Write(h, binary.LittleEndian, int64(in.k))
	binary.Write(h, binary.LittleEndian, in.ops)
	for _, e := range in.edges {
		binary.Write(h, binary.LittleEndian, [3]int32{e.From, e.To, e.Weight})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// graphWith returns the workload graph with the first n stream edges
// appended, as a public ktpm graph.
func (in *inputs) graphWith(n int) (*ktpm.Graph, error) {
	var buf bytes.Buffer
	buf.Write(in.graphText)
	for _, e := range in.edges[:n] {
		fmt.Fprintf(&buf, "e %d %d %d\n", e.From, e.To, e.Weight)
	}
	return ktpm.LoadGraph(&buf)
}
