module snapdyn/benchmark

go 1.24

require snapdyn v0.0.0

replace snapdyn => ../
