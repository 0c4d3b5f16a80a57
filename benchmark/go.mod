module scanraw/benchmark

go 1.22

require scanraw v0.0.0

replace scanraw => ../
