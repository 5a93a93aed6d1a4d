#!/bin/sh
# check.sh is the gate; CI (.github/workflows/ci.yml) runs this script and
# nothing else. Cheap static checks come first. Each lane reports its
# wall-clock time so slow lanes are visible at a glance.
set -eu
cd "$(dirname "$0")/.."

# Every lane shells out to the go tool, and half of them die with a cryptic
# "module lookup disabled" / "dial tcp" error when the module cache is cold
# and the network is unavailable. Fail fast with a clear message instead.
if ! go list -deps ./... >/dev/null 2>&1; then
	echo 'check.sh: `go list -deps ./...` failed — the build graph cannot be loaded.' >&2
	echo 'check.sh: if the error below mentions downloads or dial/lookup failures,' >&2
	echo 'check.sh: the module cache is cold and there is no network; run `go mod download`' >&2
	echo 'check.sh: somewhere with network access first.' >&2
	go list -deps ./... >/dev/null
	exit 1
fi

LANE_START=0
lane() {
	LANE_START=$(date +%s)
	echo ">> $*"
}
lane_done() {
	echo "   done in $(($(date +%s) - LANE_START))s"
}

lane 'go build ./...'
go build ./...
lane_done

lane 'go vet ./...'
go vet ./...
lane_done

# Formatting: every Go file, bench/ included, is gofmt-clean.
lane 'gofmt -l .'
test -z "$(gofmt -l .)"
lane_done

# One report for the whole analyzer suite. The -json report (active and
# suppressed findings with reasons, type errors, and the load and total
# wall-clock times) goes to vet-report.json; the human-readable findings go
# to stderr. Non-suppressed findings fail the lane. Each analyzer's fixture
# runs by name as a TestAnalyzers subtest in the go test lane, and the
# driver's exit codes and report as TestRun.
lane 'turbdb-vet ./...'
go run ./cmd/turbdb-vet -json ./... > vet-report.json
lane_done

lane 'go test ./...'
go test ./...
lane_done

lane 'go test -race -short ./...'
go test -race -short ./...
lane_done

# Coverage lane: statement-coverage floors for the packages the test-first
# hardening pass owns (cache, query, obs); see scripts/coverage.sh.
lane 'coverage floors (cache, query, obs)'
sh scripts/coverage.sh
lane_done

# The chaos suites (fault injection, node death mid-query) are the tests most
# likely to surface races in the retry/breaker/partial-merge paths; run the
# fault-tolerance packages in full under the race detector so -short filters
# above can never skip them.
lane 'go test -race fault-tolerance packages'
go test -race ./internal/faulttol/... ./internal/faultinject/... ./internal/cluster/... ./internal/wire/...
# One degradation rule, by name: a node whose halo cannot be fetched fails
# its range, and the mediator fails the query, drops the range with exact
# Coverage, or answers it from a replica.
go test -race -run 'TestChaosHaloFailureDropsRange' ./internal/cluster/...
lane_done

# Replica-failover chaos lane: the failover loop itself (TestFailover),
# the halo router that runs it for node-to-node fetches (TestHaloRouter),
# membership, placement, and the replication suites (replica failover, the
# k = 2 answers of a 4-node and a 64-node DES cluster) by name under the
# race detector. The packages also run above; naming the suites keeps a
# future -short or -run filter from silently dropping them, and gives
# failover its own lane timing. TestSimulatedResultsMatchRealResults ends
# in obs.VerifyNoLeaks, so a goroutine the real-mode fan-out or the DES
# leaves behind fails this lane.
lane 'replica failover chaos (-race)'
go test -race -run 'Failover|SimulatedResultsMatchRealResults|Replicated|FaultPlan|Scan|Held|Table|Placement|Topology|RangeFailures|ReplicasDown|KOneIsATopology|FromCacheAfterPrimaryDeath|DescribeInvertsPlace|DescribeUnknownHoldings|HaloRouter' \
	./internal/faulttol/... ./internal/membership/... ./internal/mediator/... ./internal/cluster/... ./internal/wire/... ./internal/node/...
lane_done

# Scheduler stress lane: the concurrent-scheduler suites by name under the
# race detector — admission edge cases (quota exhaustion, cancel-while-
# queued, bounded priority inversion, batch-seal races), the differential
# suites proving shared-scan batching is bit-for-bit identical to
# sequential evaluation, the mid-run node-death stress run, and the
# multi-tenant workload runner. Every suite ends in obs.VerifyNoLeaks, so a
# goroutine leaked by the scheduler's executors or batch fan-out fails here.
lane 'scheduler stress (-race)'
go test -race -run 'Sched|Concurrent' ./internal/sched/... ./internal/workload/...
lane_done

# Synopsis lane: the max-norm synopsis suites by name under the race
# detector, and not -short, so the differential runs its full 64³ schedule:
# pruned threshold scans against a twin that never prunes (solo, batch, PDF,
# top-k; aligned and clipped boxes; three scan routings), what must never
# reach the table, the filter's rules, budget eviction, concurrent scans
# learning one key, the dropped-range / DropCache case through the
# mediator, and the top-k walk against a twin that never prunes (ties at
# the k-th value, NaN and ±Inf, replica routes, a second round). -count=10
# on the concurrent suite, per the Go guide.
lane 'max-norm synopsis (-race)'
go test -race -run 'TestSynopsis|TestOrderKey|TestTopKWalk' ./internal/node/... ./internal/cluster/...
go test -race -count=10 -run 'TestSynopsisConcurrentScansOneKey' ./internal/node/...
lane_done

# Halo store lane: the HTTP halo fetcher keeps the bands it fetched
# (wire.PeerSet, DESIGN.md §4 decision 25). A long-lived peer set against a
# twin renewed before every query (threshold, PDF, top-k; aligned and
# unaligned boxes; orders 4 and 8; k = 1 and 2; pruned revisits cropping
# held bands; a peer killed after its atoms were held), LRU by bytes, an
# entry over the budget served but not stored, a failed fetch keeping
# nothing, a drop that makes the next scan fetch again, the routing table
# read once, the membership gauges left to the mediator, and a served step
# that never changes (store.Put). -count=10 on the concurrent suite, per
# the Go guide.
lane 'halo store (-race)'
go test -race -run 'TestHaloStore|TestPeerSet|TestDropFetchesHaloAgain' ./internal/wire/...
go test -race -run 'TestPutServedStepNeverChanges' ./internal/store/...
go test -race -count=10 -run 'TestHaloStoreConcurrentHits' ./internal/wire/...
lane_done

# Node scan lane: the one node query procedure (Node.scan) under the race
# detector — what each entry point reports per member (FromCache, Shared,
# ScansSaved, AtomsScanned, Breakdown counts, typed member errors, span
# names) with two workers building and running every member's consumers
# (-count=10, per the Go guide), and the drop that must forget every cached answer, threshold entries and
# PDF histograms under any scan routing; the PDF cache — a cached cluster's
# miss and hit against an uncached twin at k = 1 and 2, the aggregate
# budget's LRU by bytes, a histogram over it served but not stored, and the
# cache metrics agreeing with its Stats; and a kernel's reach — the slab
# differential (at the default atom side and at sides 4 and 16), a halo
# hole failing the scan (every query kind, with the fetch's error class, no
# cache entry, nothing learned), and every field that declares axis reach evaluating bit for bit with its edge and corner
# halo regions NaN.
lane 'node scan (-race)'
go test -race -count=10 -run 'TestScanContract' ./internal/node/...
go test -race -run 'TestDropCacheForgetsPDF|TestDropCoversAggregatesAndScanKeys' . ./internal/cache/...
go test -race -run 'TestPDFCacheDifferential|TestPDFOverBudgetServedUncached|TestAggCache|TestMetricsMatchStats|TestRepeatedPDFIsCacheHit' . ./internal/cluster/... ./internal/node/... ./internal/cache/...
go test -race -run 'TestSlabScanDifferential|TestSlabScanAtomSides|TestHaloHoleFailsScan|TestAxisReach' ./internal/node/... ./internal/derived/... ./internal/fieldexpr/...
lane_done

# Ordered-hit lane: a cache hit is an ordered read. The cache returns an
# entry's points in stored order, filtered exactly as a recompute would be,
# and the mediator concatenates disjoint node answers where it used to
# heap-merge them, bit for bit what the heap gives. The cache's entries sit
# under one mutex: hits stay exact while stores evict around them, and a
# simulated hit reads the entry it found while a store replaces it (the
# lock is never held across an SSD charge). By name under the race
# detector, seeds of the merge fuzz target included.
lane 'cache hit order + mediator merge (-race)'
go test -race -run 'TestPropertyHitIsOrderedRead|TestPropertyHitEqualsRecompute|TestPropertyConcurrentWithEvictions|TestHitReadsTheEntryItFound|TestMergeSortedPoints|FuzzMergeSortedPoints' ./internal/cache/... ./internal/mediator/...
lane_done

# Row-kernel lanes (scripts/kernels.sh): the bounds-check ratchet — the
# compiler may report no more unproven index checks in stencil.go and
# derived.go than the number committed in that script — and the arm64
# cross-compile that must contain no fused multiply-add, so a rewrite of a
# kernel cannot quietly change what it rounds.
lane 'row kernels: bounds-check ratchet'
sh scripts/kernels.sh bce
lane_done

lane 'row kernels: no fused multiply-add on arm64'
sh scripts/kernels.sh fma
lane_done

# Benchmark smoke lane: one iteration of every kernel microbenchmark plus
# the scheduler workload lane, so a change that breaks a benchmark (or its
# setup) fails the gate instead of surfacing the next time someone runs
# scripts/bench.sh.
lane 'benchmark smoke (kernel + scheduler packages, 1 iteration)'
go test -run=NONE -bench=. -benchtime=1x ./internal/stencil ./internal/field ./internal/derived ./internal/node ./internal/sched
lane_done

# Benchmark-harness lane: bench/ is a module of its own, so none of the
# lanes above builds or tests it. Its gate vets it, runs turbdb-vet over it
# and runs its tests: a 32³ smoke run of every workload checked against the
# brute-force oracle, the BENCHMARK.json drift guard, the exact-count
# repeatability test and the -compare checker. A change that breaks a symbol
# the benchmark drives, or an answer it verifies, fails here.
lane 'benchmark harness gate (bench/check.sh)'
bash bench/check.sh
lane_done

# Wire-protocol lane: the golden-frame fixtures and the JSON golden bodies
# (committed bytes must decode to the pinned values and re-encode
# byte-identically), the JSON points codec's differential against
# encoding/json, and the
# differential cross-encoding matrix (every JSON/frame client–server pairing
# must answer Float32bits-identically to the JSON baseline, including the
# dead-node partial-coverage and replica-failover cases, traced and behind
# the scheduler), plus the halo hop over frames and over its JSON fallback
# and the recorded trace of a failed query, and the halo band — a
# loopback cluster shipping bands against an in-process twin shipping
# whole atoms, hostile boxes on /atoms, and the node's and field's band
# decode and length checks, and nested operators (full-box reach) against
# brute force in process and over HTTP — by name, under the race detector. The suites
# also run in the package lanes above; naming them keeps a future filter
# from silently dropping the protocol's conformance evidence.
lane 'wire protocol: golden frames and JSON bodies + differential matrix (-race)'
go test -race -run 'TestGoldenFrames|TestGoldenJSON|TestJSONPoints|TestDifferential|TestFrame|TestSpansAndAtoms|TestFetchAtomsOverWire|TestPeerSetFailoverToReplica|TestFailedQueryTraceRecorded|TestHaloBandDifferential|TestAtomsRejectsHostileBoxes|TestNestedOperatorsMatchBruteForce' ./internal/wire/...
go test -race -run 'TestHaloBand|TestHaloBlob|TestHaloFetchSpan|TestAppendPart|TestDecodeFrom' ./internal/node/... ./internal/field/...
lane_done

# Fuzz smoke lane: a short coverage-guided run of each fuzz target beyond its
# seed corpus (the seeds already ran as plain tests above). The targets are
# whatever `go test -list` finds in the module, so a new one cannot be left
# out; an empty list fails the lane. `go test -fuzz` accepts exactly one
# matching target per invocation, hence one anchored pattern each.
# Skippable for quick local iterations: SKIP_FUZZ=1 scripts/check.sh
if [ "${SKIP_FUZZ:-0}" = "1" ]; then
	echo '>> fuzz smoke: skipped (SKIP_FUZZ=1)'
else
	lane 'fuzz smoke (10s per target)'
	fuzz_list=$(go test -list '^Fuzz' ./...)
	fuzz_targets=$(echo "$fuzz_list" | awk '/^Fuzz/ { names[++n] = $1; next } /^ok/ { for (i = 1; i <= n; i++) print $2, names[i]; n = 0 }')
	test -n "$fuzz_targets"
	echo "$fuzz_targets" | while read -r pkg target; do
		echo "   $target ($pkg)"
		go test -run=NONE -fuzz="^$target\$" -fuzztime=10s "$pkg"
	done
	lane_done
fi

echo 'All checks passed.'
