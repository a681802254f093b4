# Development targets. CI runs the same commands; see .github/workflows/ci.yml.

.PHONY: test bench-smoke bench-json bench-json-check

test:
	go build ./... && go test ./...

# One iteration of every benchmark (no unit tests), so benches cannot
# rot unnoticed. CI invokes this target.
bench-smoke:
	go test -run xxx -bench=. -benchtime=1x ./...

# Regenerate the committed serving sweep numbers (BENCH_topk.json):
# the shard-plane sweep (ns/op, allocs/op, summary-table derives across
# shard counts on the shared derived plane), the gather chunk-size
# sweep, the batch amortization sweep, the snapshot startup sweep
# (open wall time + first-query latency for build/eager/lazy/mmap at
# several graph sizes), the instrumentation overhead sweep (warm-cache
# /query with observability on versus off), the distributed, overload
# and ingest sweeps. -json implies every sweep, so the flags below stay
# complete automatically.
bench-json:
	go run ./cmd/benchkit -exp topk,batch -json BENCH_topk.json

# Drift check for the committed sweep document: regenerate the sweeps in
# memory and fail when BENCH_topk.json's schema (key paths, row names)
# no longer matches what benchkit writes. CI runs this; fix drift by
# committing a fresh make bench-json.
bench-json-check:
	go run ./cmd/benchkit -exp topk,batch -drift BENCH_topk.json
