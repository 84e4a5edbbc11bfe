module mimir/bench

go 1.22

require mimir v0.0.0

replace mimir => ../
