module dnssecboot/bench

go 1.22

require dnssecboot v0.0.0

replace dnssecboot => ../
