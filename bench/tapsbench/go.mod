module taps/bench/tapsbench

go 1.22

require taps v0.0.0

replace taps => ../..
