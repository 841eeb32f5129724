// The benchmark is a module of its own so the repository's build and tier-1
// test commands (`go build ./... && go test ./...` at the root) are exactly
// what they were before it existed. The module path sits under clocksync/,
// which is what lets it import clocksync/internal/...
module clocksync/benchmark

go 1.22

require clocksync v0.0.0

replace clocksync => ../
