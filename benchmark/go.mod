module pamakv/benchmark

go 1.22

require pamakv v0.0.0

replace pamakv => ../
