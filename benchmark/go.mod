module relidev/benchmark

go 1.22

require relidev v0.0.0

replace relidev => ../
