module leap/bench

go 1.24

require leap v0.0.0

replace leap => ../
