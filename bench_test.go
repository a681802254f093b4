package ktpm

// One testing.B benchmark per paper artifact (Tables 2-3, Figures 6-9)
// plus the DESIGN.md ablations. These run on reduced datasets so
// `go test -bench=. -benchmem` finishes in minutes; the full paper-scale
// sweeps live in cmd/benchkit. Every benchmark reports edges/op where the
// paper's argument is about retrieved edges.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ktpm/internal/bench"
	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/dp"
	"ktpm/internal/kgpm"
	"ktpm/internal/lazy"
	"ktpm/internal/pll"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
	"ktpm/internal/shard"
	"ktpm/internal/store"
)

var (
	benchOnce sync.Once
	benchEnv  *bench.Env    // a GS1-scale power-law environment
	benchGD   *bench.Env    // a GD1-scale citation environment
	benchT20  []*query.Tree // distinct-label T20 workload
	benchT50  []*query.Tree // distinct-label T50 workload
	benchDup  []*query.Tree // duplicate-label T20 workload
)

func setupBench(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		bench.QueriesPerSet = 4
		benchEnv = bench.Prepare(bench.Dataset{Name: "GS-bench", Kind: bench.PowerLaw, Nodes: 1000, Seed: 21})
		benchGD = bench.Prepare(bench.Dataset{Name: "GD-bench", Kind: bench.Citation, Nodes: 500, Seed: 11})
		benchT20 = benchEnv.Queries(20, true)
		benchT50 = benchEnv.Queries(50, true)
		benchDup = benchEnv.Queries(20, false)
	})
	if len(benchT20) == 0 || len(benchT50) == 0 || len(benchDup) == 0 {
		b.Fatal("benchmark query workloads unavailable")
	}
}

// --- Table 2: transitive closure pre-computation -------------------------

func benchmarkClosure(b *testing.B, d bench.Dataset) {
	g := d.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := closure.Compute(g, closure.Options{})
		b.ReportMetric(float64(c.NumEntries()), "entries/op")
	}
}

func BenchmarkTable2_ClosureGD(b *testing.B) {
	benchmarkClosure(b, bench.Dataset{Name: "GD", Kind: bench.Citation, Nodes: 500, Seed: 11})
}

func BenchmarkTable2_ClosureGS(b *testing.B) {
	benchmarkClosure(b, bench.Dataset{Name: "GS", Kind: bench.PowerLaw, Nodes: 1000, Seed: 21})
}

// --- Table 3: run-time graph extraction ----------------------------------

func BenchmarkTable3_RTGBuild(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := benchT20[i%len(benchT20)]
		r := rtg.Build(benchEnv.Closure, q)
		b.ReportMetric(float64(r.NumEdges()), "edges/op")
	}
}

// --- Figure 6: four-algorithm comparison, T20 ----------------------------

func benchmarkKTPM(b *testing.B, qs []*query.Tree, k int, algo bench.Algo, e *bench.Env) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		switch algo {
		case bench.Topk:
			r := rtg.Build(e.Closure, q)
			core.TopK(r, k)
			b.ReportMetric(float64(r.NumEdges()), "edges/op")
		case bench.TopkEN:
			st := e.Store
			st.ResetCounters()
			lazy.TopK(st, q, k, lazy.Options{})
			b.ReportMetric(float64(st.Counters().EntriesRead), "edges/op")
		case bench.DPB:
			r := rtg.Build(e.Closure, q)
			dp.TopK(r, k)
			b.ReportMetric(float64(r.NumEdges()), "edges/op")
		case bench.DPP:
			st := e.Store
			st.ResetCounters()
			dp.TopKLazy(st, q, k)
			b.ReportMetric(float64(st.Counters().EntriesRead), "edges/op")
		}
	}
}

func BenchmarkFig6_Total_DPB(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 20, bench.DPB, benchEnv)
}

func BenchmarkFig6_Total_DPP(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 20, bench.DPP, benchEnv)
}

func BenchmarkFig6_Total_Topk(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 20, bench.Topk, benchEnv)
}

func BenchmarkFig6_Total_TopkEN(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 20, bench.TopkEN, benchEnv)
}

func BenchmarkFig6_Top1_DPB(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 1, bench.DPB, benchEnv)
}

func BenchmarkFig6_Top1_DPP(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 1, bench.DPP, benchEnv)
}

func BenchmarkFig6_Top1_Topk(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 1, bench.Topk, benchEnv)
}

func BenchmarkFig6_Top1_TopkEN(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT20, 1, bench.TopkEN, benchEnv)
}

// --- Figure 7: scalability of Topk and Topk-EN ---------------------------

func BenchmarkFig7_K10_Topk(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT50, 10, bench.Topk, benchEnv)
}

func BenchmarkFig7_K10_TopkEN(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT50, 10, bench.TopkEN, benchEnv)
}

func BenchmarkFig7_K100_Topk(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT50, 100, bench.Topk, benchEnv)
}

func BenchmarkFig7_K100_TopkEN(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchT50, 100, bench.TopkEN, benchEnv)
}

func BenchmarkFig7_T50_TopkEN_GD(b *testing.B) {
	setupBench(b)
	qs := benchGD.Queries(50, true)
	if len(qs) == 0 {
		b.Skip("no T50 workload on the citation bench graph")
	}
	benchmarkKTPM(b, qs, 20, bench.TopkEN, benchGD)
}

// --- Figure 8: general twig matching (Topk-GT) ---------------------------

func BenchmarkFig8_TopkGT_DupLabels(b *testing.B) {
	setupBench(b)
	benchmarkKTPM(b, benchDup, 20, bench.TopkEN, benchEnv)
}

// --- Figure 9: kGPM (mtree vs mtree+) ------------------------------------

var (
	kgpmOnce sync.Once
	kgpmEnv  *kgpm.Env
	kgpmQ    *kgpm.Query
)

func setupKGPM(b *testing.B) {
	b.Helper()
	kgpmOnce.Do(func() {
		d := bench.Dataset{Name: "kgpm-bench", Kind: bench.PowerLaw, Nodes: 400, Seed: 5}
		g := d.Build()
		kgpmEnv = kgpm.NewEnv(g)
		kgpmQ = bench.ExtractPattern(g, 4, rand.New(rand.NewSource(9)))
	})
	if kgpmQ == nil {
		b.Skip("no extractable kGPM pattern")
	}
}

func BenchmarkFig9_MTree(b *testing.B) {
	setupKGPM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kgpm.TopK(kgpmEnv, kgpmQ, 20, kgpm.MTree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_MTreePlus(b *testing.B) {
	setupKGPM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kgpm.TopK(kgpmEnv, kgpmQ, 20, kgpm.MTreePlus); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// A2: the two-level Q/Q_l lazy queue vs pushing all candidates into Q.
func BenchmarkAblationLazyQ_On(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rtg.Build(benchEnv.Closure, benchT50[i%len(benchT50)])
		core.TopKWith(r, 100, core.Options{})
	}
}

func BenchmarkAblationLazyQ_Off(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rtg.Build(benchEnv.Closure, benchT50[i%len(benchT50)])
		core.TopKWith(r, 100, core.Options{DisableLazyQueues: true})
	}
}

// A3: tight vs loose loading trigger.
func benchmarkTrigger(b *testing.B, bound lazy.Bound) {
	setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := benchEnv.Store
		st.ResetCounters()
		lazy.TopK(st, benchT50[i%len(benchT50)], 20, lazy.Options{Bound: bound})
		b.ReportMetric(float64(st.Counters().EntriesRead), "edges/op")
	}
}

func BenchmarkAblationTrigger_Tight(b *testing.B) { benchmarkTrigger(b, lazy.TightBound) }
func BenchmarkAblationTrigger_Loose(b *testing.B) { benchmarkTrigger(b, lazy.LooseBound) }

// A4: full-closure oracle vs the PLL 2-hop index, build cost.
func BenchmarkAblationOracle_ClosureBuild(b *testing.B) {
	setupBench(b)
	g := benchEnv.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closure.Compute(g, closure.Options{KeepDistanceIndex: true})
	}
}

func BenchmarkAblationOracle_PLLBuild(b *testing.B) {
	setupBench(b)
	g := benchEnv.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := pll.Build(g)
		b.ReportMetric(float64(idx.LabelEntries()), "entries/op")
	}
}

// Store micro-benchmark: block retrieval throughput.
func BenchmarkStoreLoadBlock(b *testing.B) {
	setupBench(b)
	st := store.New(benchEnv.Closure, 64)
	g := benchEnv.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int32(i % g.NumNodes())
		st.OpenList(g.Label(v), v).BlockCols(0)
	}
}

// --- Sharded scatter-gather ----------------------------------------------

var (
	shardBenchOnce    sync.Once
	shardBenchDB      *Database
	shardBenchQueries []*Query
	shardBenchErr     error
)

// setupShardBench prepares the sharding bench workload —
// bench.TopKWorkload, shared with the benchkit topk sweep so
// BENCH_topk.json measures exactly what these benchmarks measure: a
// weighted power-law graph (MaxWeight spreads shortest-path scores the
// way million-node scale does, keeping equal-score tie groups small, the
// regime the k-way merge's canonical tie-drain is designed for) with a
// random-walk workload and a deep k.
func setupShardBench(b *testing.B) {
	b.Helper()
	shardBenchOnce.Do(func() {
		g, c, qs, err := bench.TopKWorkload()
		if err != nil {
			shardBenchErr = err
			return
		}
		shardBenchDB = &Database{g: g, c: c, st: store.New(c, 0)}
		for _, t := range qs {
			q, perr := shardBenchDB.ParseQuery(t.String())
			if perr != nil {
				shardBenchErr = perr
				return
			}
			shardBenchQueries = append(shardBenchQueries, q)
		}
	})
	if shardBenchErr != nil {
		b.Fatalf("sharding benchmark workload unavailable: %v", shardBenchErr)
	}
	if len(shardBenchQueries) == 0 {
		b.Fatal("sharding benchmark workload empty")
	}
}

// BenchmarkShardedTopK compares the scatter-gather path at 1/2/4/8 shards
// against the single-database baseline. Deep k makes Lawler enumeration
// the dominant cost, which is exactly what root-partitioning divides:
// enumeration is superlinear in the number of emitted matches (every
// emission rescans the parked-candidate list), so N shards emitting ~k/N
// matches each do less total work than one enumerator emitting k — the
// sharded path wins even on one core, and the per-shard goroutines add
// parallel speedup on top when cores are available.
func BenchmarkShardedTopK(b *testing.B) {
	setupShardBench(b)
	db := shardBenchDB
	queries := shardBenchQueries
	const k = 1500
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.TopK(queries[i%len(queries)], k); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 2, 4, 8} {
		sdb, err := db.Shard(n, PartitionByLabel())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sdb.TopK(queries[i%len(queries)], k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamGather sweeps the gather transport chunk size: the
// scatter-gather stream drained to k at chunk sizes 1 (the old per-match
// transport: one channel synchronization per match) through 128. The
// committed chunk-size sweep in BENCH_topk.json (benchkit -exp batch)
// records the same curve; shard.DefaultChunkSize is the knee.
func BenchmarkStreamGather(b *testing.B) {
	setupShardBench(b)
	queries := shardBenchQueries
	const k = 1500
	for _, chunk := range []int{1, 8, 32, 128} {
		sdb, err := shardBenchDB.Shard(4, PartitionByLabel())
		if err != nil {
			b.Fatal(err)
		}
		sdb.SetGatherChunkSize(chunk)
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := sdb.Stream(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < k; n++ {
					if _, ok := st.Next(); !ok {
						break
					}
				}
				st.Close()
			}
		})
	}
}

// BenchmarkBatchTopK measures batch amortization: eight items cycling
// four distinct queries, answered by individual TopK calls versus one
// TopKBatch call. The batch path enumerates each distinct query once
// (in-batch dedup), so it approaches half the loop's cost on this
// workload; the server's /batch adds HTTP/parse/admission amortization
// on top.
func BenchmarkBatchTopK(b *testing.B) {
	setupShardBench(b)
	db := shardBenchDB
	const k = 1500
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{Query: shardBenchQueries[i%len(shardBenchQueries)], K: k}
	}
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if _, err := db.TopK(it.Query, it.K); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range db.TopKBatch(items) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// BenchmarkShardPlaneSweep is the shard-count sweep of the shared
// derived-data plane: the same workload as BenchmarkShardedTopK over
// {1,2,4,8} shards whose replicas share the base store's plane. Each
// sub-benchmark builds a fresh store so the reported tables/op — summary
// tables derived from the simulated disk, amortized over b.N — counts the
// configuration's own derives, flat in the shard count.
func BenchmarkShardPlaneSweep(b *testing.B) {
	setupShardBench(b)
	queries := shardBenchQueries
	const k = 1500
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shared/shards=%d", n), func(b *testing.B) {
			st := store.New(shardBenchDB.c, 0) // fresh derived plane
			sdb, err := shard.New(st, n, shard.LabelBalanced{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sdb.TopK(queries[i%len(queries)].t, k)
			}
			b.StopTimer()
			c := sdb.Counters()
			b.ReportMetric(float64(c.TablesRead)/float64(b.N), "tables/op")
			b.ReportMetric(float64(c.TableHits)/float64(b.N), "hits/op")
		})
	}
}
