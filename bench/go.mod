// The benchmark is a module of its own so that the program's build
// (`go build ./...` at the repository root) never depends on it; the
// replace directive points it at the checkout it sits in, and the shared
// import-path prefix lets it reach the program's internal packages.
module github.com/turbdb/turbdb/bench

go 1.22

require github.com/turbdb/turbdb v0.0.0

replace github.com/turbdb/turbdb => ../
