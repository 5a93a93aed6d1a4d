#!/usr/bin/env bash
# Builds the benchmark (and with it the program, from the checkout's own
# source) into .bench_build/ and runs it from the checkout root. Everything
# the build and the run write stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
mkdir -p "$root/.bench_build"
go -C bench build -o "$root/.bench_build/turbdb-bench" .
exec "$root/.bench_build/turbdb-bench" "$@"
