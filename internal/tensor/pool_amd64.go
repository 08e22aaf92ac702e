package tensor

// poolRow is poolRowGeneric in SSE (pool_amd64.s), with no CPU feature
// check for the reason axpy has none. Callers guarantee both rows hold at
// least 2·len(out) values; the assembly reads exactly that many of each.
//
//go:noescape
func poolRow(out, r0, r1 []float32, bias float32)
