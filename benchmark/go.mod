module cuckoohash/benchmark

go 1.24

require cuckoohash v0.0.0

replace cuckoohash => ../
