module tahoma/bench

go 1.24

require tahoma v0.0.0

replace tahoma => ../
