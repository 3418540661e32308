module amrt/benchmark

go 1.22

require amrt v0.0.0

replace amrt => ../
