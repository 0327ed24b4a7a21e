module splidt/bench

go 1.24

require splidt v0.0.0

replace splidt => ../
