module b2b/bench

go 1.22

require b2b v0.0.0

replace b2b => ../
