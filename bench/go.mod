module unicache/bench

go 1.24

require unicache v0.0.0

replace unicache => ../
