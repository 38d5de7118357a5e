module gpufi/perfledger

go 1.22

require gpufi v0.0.0

replace gpufi => ../
