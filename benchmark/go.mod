module liveupdate/benchmark

go 1.22

require liveupdate v0.0.0

replace liveupdate => ../
