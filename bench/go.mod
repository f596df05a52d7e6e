module distcount/bench

go 1.24

require distcount v0.0.0

replace distcount => ../
