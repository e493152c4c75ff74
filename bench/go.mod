module xpathviews/bench

go 1.22

require xpathviews v0.0.0

replace xpathviews => ../
