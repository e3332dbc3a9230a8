module fortd/bench

go 1.22

require fortd v0.0.0

replace fortd => ../
