module mptcpsim

go 1.24
