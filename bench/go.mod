module degradable/bench

go 1.22

require degradable v0.0.0

replace degradable => ../
