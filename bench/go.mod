module spacecdn/bench

go 1.22

require spacecdn v0.0.0

replace spacecdn => ../
