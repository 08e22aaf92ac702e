package tensor

// poolPlane is poolPlaneGeneric in SSE (pool_amd64.s), with no CPU feature
// check for the reason axpy has none. Callers guarantee the bounds
// PoolBiasReLU checks, with rows and ow positive; the assembly reads
// exactly the 2·ow sums of each of the 2·rows sum rows and writes rows·ow
// outputs.
//
//go:noescape
func poolPlane(out, acc []float32, ow, pw, rows int, bias float32)
