module oreo/bench

go 1.22

require oreo v0.0.0

replace oreo => ../
