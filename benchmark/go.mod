module github.com/repro/wormhole/benchmark

go 1.24

require github.com/repro/wormhole v0.0.0

replace github.com/repro/wormhole => ../
