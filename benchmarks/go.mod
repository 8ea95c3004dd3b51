// The benchmark is a module of its own so that it builds with its own build
// file and stays out of the program's `go build ./... && go test ./...`.
// Its import path keeps the `shmt/` prefix, which is what lets it import the
// program's internal packages and time their public entry points from outside.
module shmt/benchmarks

go 1.22

require shmt v0.0.0

replace shmt => ../
