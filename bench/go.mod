module mcorr/bench

go 1.22

require mcorr v0.0.0

replace mcorr => ../
