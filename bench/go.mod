module slb/bench

go 1.24

require slb v0.0.0

replace slb => ../
