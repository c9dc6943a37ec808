module github.com/streamworks/streamworks/benchmark

go 1.22

require github.com/streamworks/streamworks v0.0.0

replace github.com/streamworks/streamworks => ../
