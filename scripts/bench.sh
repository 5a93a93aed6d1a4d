#!/bin/sh
# bench.sh runs a benchmark lane and records the results as a small JSON
# document, so each PR that claims a speedup can commit the numbers it was
# measured with (BENCH_<issue>.json at the repo root).
#
# Usage:
#
#	scripts/bench.sh                 # kernel lane, writes BENCH_3.json
#	scripts/bench.sh sched           # scheduler lane, writes BENCH_8.json
#	scripts/bench.sh wire            # wire-protocol lane, writes BENCH_10.json
#	scripts/bench.sh kernels out.json
#	BENCHTIME=1s scripts/bench.sh    # slower, steadier numbers
#
# The kernel lane's document has two sections: "kernels" is every benchmark
# that reports a ns/point metric (raw rows, per field per FD order per
# path), and "speedups" pairs the perpoint/row variants of BenchmarkNorm so
# the bulk engine's improvement factor per field per order is explicit.
#
# The scheduler lane replays the same multi-tenant concurrent threshold
# workload at 8/32/128 clients with the scheduler off (bare mediator) and
# on (admission control + shared-scan batching): "runs" is the raw tail
# latency and physical node-side scan work per lane, and "improvements"
# pairs the lanes per client count — p99 speedup and the percentage of
# node scan work the shared scans eliminated.
#
# The wire lane serializes and parses an identical 64k-point threshold
# result through both response encodings (JSON and the binary frame
# protocol): "runs" is ns/point and bytes/point per operation per
# protocol, and "improvements" pairs them — decode/encode speedup and the
# bytes-per-point compression ratio. Only sh, go and awk are required.
set -eu
cd "$(dirname "$0")/.."

lane=kernels # bare output-file argument keeps the kernel lane
case "${1:-}" in
sched)
	lane=sched
	shift
	;;
wire)
	lane=wire
	shift
	;;
kernels) shift ;;
esac

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

if [ "$lane" = wire ]; then
	out=${1:-BENCH_10.json}
	benchtime=${BENCHTIME:-200ms}
	# Both encodings serialize/parse the identical 64k-point threshold
	# result, so ns/point and bytes/point are directly comparable; the
	# improvements section pairs the protocols per operation.
	echo ">> go test -bench BenchmarkWire (benchtime $benchtime)" >&2
	go test -run=NONE -bench='BenchmarkWireEncode|BenchmarkWireDecode' \
		-benchtime "$benchtime" ./internal/wire | tee "$tmp" >&2

	awk -v generated="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-v goversion="$(go version | sed 's/^go version //')" \
		-v benchtime="$benchtime" '
	/^BenchmarkWire/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		split(name, part, "/")               # [1]=BenchmarkWireEncode|Decode [2]=proto=json|frame
		op = part[1] == "BenchmarkWireEncode" ? "encode" : "decode"
		proto = part[2]
		sub(/^proto=/, "", proto)
		ns = bpp = "0"
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/point") ns = $i
			if ($(i + 1) == "bytes/point") bpp = $i
		}
		rn[++nr] = op SUBSEP proto
		rns[nr] = ns; rbpp[nr] = bpp
		v[op, proto, "ns"] = ns
		v[op, proto, "bpp"] = bpp
	}
	END {
		printf "{\n"
		printf "  \"issue\": 10,\n"
		printf "  \"generated\": \"%s\",\n", generated
		printf "  \"go\": \"%s\",\n", goversion
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"points\": 65536,\n"
		printf "  \"runs\": [\n"
		for (i = 1; i <= nr; i++) {
			split(rn[i], part, SUBSEP)
			printf "    {\"op\": \"%s\", \"proto\": \"%s\", \"ns_per_point\": %s, \"bytes_per_point\": %s}%s\n", \
				part[1], part[2], rns[i], rbpp[i], i < nr ? "," : ""
		}
		printf "  ],\n"
		printf "  \"improvements\": [\n"
		n = split("encode decode", ops, " ")
		for (i = 1; i <= n; i++) {
			op = ops[i]
			printf "    {\"op\": \"%s\", \"json_ns_per_point\": %s, \"frame_ns_per_point\": %s, \"speedup\": %.2f, \"json_bytes_per_point\": %s, \"frame_bytes_per_point\": %s, \"bytes_ratio\": %.2f}%s\n", \
				op, v[op, "json", "ns"], v[op, "frame", "ns"], v[op, "json", "ns"] / v[op, "frame", "ns"], \
				v[op, "json", "bpp"], v[op, "frame", "bpp"], v[op, "json", "bpp"] / v[op, "frame", "bpp"], \
				i < n ? "," : ""
		}
		printf "  ]\n"
		printf "}\n"
	}' "$tmp" > "$out"

	echo ">> wrote $out" >&2
	awk '/"op"/ && /speedup/' "$out" >&2
	exit 0
fi

if [ "$lane" = sched ]; then
	out=${1:-BENCH_8.json}
	# One full replay of the workload per lane: the stream is fixed, so
	# -benchtime 1x is deterministic work and the p50/p99 are over the
	# per-query latencies inside the replay, not over b.N.
	echo ">> go test -bench BenchmarkSchedulerWorkload (benchtime 1x)" >&2
	go test -run=NONE -bench='BenchmarkSchedulerWorkload' -benchtime=1x \
		./internal/sched | tee "$tmp" >&2

	awk -v generated="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-v goversion="$(go version | sed 's/^go version //')" '
	/^BenchmarkSchedulerWorkload/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		split(name, part, "/")               # [2]=clients=N [3]=sched=off|on
		sub(/^clients=/, "", part[2]); clients = part[2]
		sub(/^sched=/, "", part[3]); mode = part[3]
		p50 = p99 = pts = saved = "0"
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "p50_ms") p50 = $i
			if ($(i + 1) == "p99_ms") p99 = $i
			if ($(i + 1) == "points_examined") pts = $i
			if ($(i + 1) == "scans_saved") saved = $i
		}
		rn[++nr] = clients SUBSEP mode
		rp50[nr] = p50; rp99[nr] = p99; rpts[nr] = pts; rsaved[nr] = saved
		v[clients, mode, "p99"] = p99
		v[clients, mode, "pts"] = pts
		v[clients, mode, "saved"] = saved
		if (!(clients in seen)) { seen[clients] = 1; cl[++ncl] = clients }
	}
	END {
		printf "{\n"
		printf "  \"issue\": 8,\n"
		printf "  \"generated\": \"%s\",\n", generated
		printf "  \"go\": \"%s\",\n", goversion
		printf "  \"bench\": \"BenchmarkSchedulerWorkload\",\n"
		printf "  \"runs\": [\n"
		for (i = 1; i <= nr; i++) {
			split(rn[i], part, SUBSEP)
			printf "    {\"clients\": %s, \"sched\": \"%s\", \"p50_ms\": %s, \"p99_ms\": %s, \"points_examined\": %s, \"scans_saved\": %s}%s\n", \
				part[1], part[2], rp50[i], rp99[i], rpts[i], rsaved[i], i < nr ? "," : ""
		}
		printf "  ],\n"
		printf "  \"improvements\": [\n"
		for (i = 1; i <= ncl; i++) {
			c = cl[i]
			off = v[c, "off", "pts"]; on = v[c, "on", "pts"]
			red = off > 0 ? 100 * (off - on) / off : 0
			printf "    {\"clients\": %s, \"p99_off_ms\": %s, \"p99_on_ms\": %s, \"p99_speedup\": %.2f, \"scan_reduction_pct\": %.1f, \"scans_saved\": %s}%s\n", \
				c, v[c, "off", "p99"], v[c, "on", "p99"], v[c, "off", "p99"] / v[c, "on", "p99"], red, v[c, "on", "saved"], i < ncl ? "," : ""
		}
		printf "  ]\n"
		printf "}\n"
	}' "$tmp" > "$out"

	echo ">> wrote $out" >&2
	awk '/"clients"/ && /scan_reduction_pct/' "$out" >&2
	exit 0
fi

out=${1:-BENCH_3.json}
benchtime=${BENCHTIME:-100ms}

echo ">> go test -bench (benchtime $benchtime)" >&2
go test -run=NONE \
	-bench='BenchmarkNorm|BenchmarkDerivRow|BenchmarkGradientRow|BenchmarkCurlRow|BenchmarkThresholdScan' \
	-benchtime "$benchtime" \
	./internal/stencil ./internal/derived ./internal/node | tee "$tmp" >&2

awk -v generated="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v goversion="$(go version | sed 's/^go version //')" \
	-v benchtime="$benchtime" '
/^Benchmark/ && /ns\/point/ {
	name = $1
	sub(/-[0-9]+$/, "", name)          # strip the GOMAXPROCS suffix
	sub(/^Benchmark/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/point") ns = $i
	}
	kn[++nk] = name
	kv[nk] = ns
	# Norm/<field>/o<order>/<path> rows feed the speedup table.
	if (split(name, part, "/") == 4 && part[1] == "Norm") {
		key = part[2] SUBSEP substr(part[3], 2)
		if (part[4] == "perpoint") pp[key] = ns
		if (part[4] == "row") {
			row[key] = ns
			sk[++ns_pairs] = key
		}
	}
}
END {
	printf "{\n"
	printf "  \"issue\": 3,\n"
	printf "  \"generated\": \"%s\",\n", generated
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"kernels\": [\n"
	for (i = 1; i <= nk; i++)
		printf "    {\"bench\": \"%s\", \"ns_per_point\": %s}%s\n", kn[i], kv[i], i < nk ? "," : ""
	printf "  ],\n"
	printf "  \"speedups\": [\n"
	for (i = 1; i <= ns_pairs; i++) {
		split(sk[i], part, SUBSEP)
		p = pp[sk[i]]; r = row[sk[i]]
		printf "    {\"field\": \"%s\", \"order\": %s, \"perpoint_ns\": %s, \"row_ns\": %s, \"speedup\": %.2f}%s\n", \
			part[1], part[2], p, r, p / r, i < ns_pairs ? "," : ""
	}
	printf "  ]\n"
	printf "}\n"
}' "$tmp" > "$out"

echo ">> wrote $out" >&2
awk '/"field"/' "$out" >&2
